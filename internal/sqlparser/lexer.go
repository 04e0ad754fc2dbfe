// Package sqlparser implements the SQL front end of the engine: a lexer and
// a recursive-descent parser producing an AST that the rewriter lowers into
// the Query Graph Model. The dialect covers the paper's scope — conjunctive
// select-project-join queries with aggregates, plus the DML the workload
// needs (INSERT/UPDATE/DELETE) and DDL (CREATE TABLE / CREATE INDEX).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , . ; *
	tokOp     // = <> != < <= > >=
)

type token struct {
	kind tokenKind
	text string // keywords are uppercased, identifiers lowercased
	pos  int    // byte offset in the input, for error messages
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "BETWEEN": true, "IN": true, "GROUP": true,
	"BY": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true, "ON": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"INT": true, "FLOAT": true, "STRING": true, "NULL": true, "DISTINCT": true,
	"EXPLAIN": true, "ANALYZE": true,
	"SHOW": true, "STATS": true, "QUERIES": true, "METRICS": true,
	"HISTORY": true, "LAST": true,
	"ACCURACY": true, "DRIFT": true, "FOR": true,
}

// isKeyword reports whether word, uppercased, is a keyword, without building
// the uppercase string for the common word that is not one.
func isKeyword(word string) bool {
	const longest = len("DISTINCT")
	var buf [longest]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf { // let strings.ToUpper decide what ſelect spells
			return keywords[strings.ToUpper(word)]
		}
		if i == longest {
			return false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// lexError reports a scanning problem with its byte offset.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: lex error at offset %d: %s", e.pos, e.msg)
}

// lexer scans one statement's text a token at a time. The parser and
// Normalize pull from it — neither looks more than one token ahead — so a
// 100 KB INSERT is never held as a token slice, and token text is a slice of
// the input wherever the two are byte-identical (numbers, symbols, operators,
// string literals without an escaped quote, words already in canonical case).
type lexer struct {
	input string
	i     int
	prev  token // the token before the one being scanned; the zero token at the start
}

// emit records t as the latest token and returns it.
func (lx *lexer) emit(kind tokenKind, text string, pos int) (token, error) {
	lx.prev = token{kind: kind, text: text, pos: pos}
	return lx.prev, nil
}

// next returns the next token; at the end of the input, tokEOF, again and
// again. After an error the lexer must not be used further.
func (lx *lexer) next() (token, error) {
	input, n := lx.input, len(lx.input)
	for lx.i < n {
		i := lx.i
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
			lx.i = i
		case c == '\'':
			start := i
			i++
			escaped := false
			for ; ; i++ {
				if i >= n {
					return token{}, &lexError{pos: start, msg: "unterminated string literal"}
				}
				if input[i] != '\'' {
					continue
				}
				if i+1 < n && input[i+1] == '\'' { // escaped quote
					escaped = true
					i++
					continue
				}
				break
			}
			lx.i = i + 1
			text := input[start+1 : i]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			return lx.emit(tokString, text, start)
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' && startsValue(lx.prev)):
			start := i
			if c == '-' {
				i++
			}
			seenDot, seenExp := false, false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			lx.i = i
			return lx.emit(tokNumber, input[start:i], start)
		case c >= utf8.RuneSelf || isIdentStart(rune(c)):
			start := i
			r, size := utf8.DecodeRuneInString(input[i:])
			if !isIdentStart(r) {
				return token{}, &lexError{pos: start, msg: fmt.Sprintf("unexpected character %q", r)}
			}
			i += size
			for i < n {
				r, size = utf8.DecodeRuneInString(input[i:])
				if !isIdentPart(r) {
					break
				}
				i += size
			}
			lx.i = i
			word := input[start:i]
			if isKeyword(word) {
				return lx.emit(tokKeyword, strings.ToUpper(word), start)
			}
			return lx.emit(tokIdent, strings.ToLower(word), start)
		default:
			start := i
			switch c {
			case '(', ')', ',', '.', ';', '*':
				lx.i++
				return lx.emit(tokSymbol, input[i:i+1], start)
			case '=':
				lx.i++
				return lx.emit(tokOp, "=", start)
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					lx.i += 2
					return lx.emit(tokOp, input[i:i+2], start)
				}
				lx.i++
				return lx.emit(tokOp, "<", start)
			case '>':
				if i+1 < n && input[i+1] == '=' {
					lx.i += 2
					return lx.emit(tokOp, ">=", start)
				}
				lx.i++
				return lx.emit(tokOp, ">", start)
			case '!':
				if i+1 < n && input[i+1] == '=' {
					lx.i += 2
					return lx.emit(tokOp, "<>", start)
				}
				return token{}, &lexError{pos: start, msg: "unexpected '!'"}
			case '-':
				// A '-' that is not a numeric sign: unsupported arithmetic.
				return token{}, &lexError{pos: start, msg: "unexpected '-' (arithmetic expressions are not supported)"}
			default:
				return token{}, &lexError{pos: start, msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	return lx.emit(tokEOF, "", n)
}

// startsValue reports whether a '-' after prev begins a negative numeric
// literal: true at the start of the input, after operators, commas, opening
// parens, and the value-introducing keywords.
func startsValue(prev token) bool {
	switch prev.kind {
	case tokEOF: // nothing scanned yet
		return true
	case tokOp:
		return true
	case tokSymbol:
		return prev.text == "(" || prev.text == ","
	case tokKeyword:
		switch prev.text {
		case "BETWEEN", "AND", "IN", "VALUES", "SET", "LIMIT", "WHERE":
			return true
		}
	}
	return false
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
