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

// token is a span with its canonical text, what the parser reads.
type token struct {
	kind tokenKind
	text string // keywords are uppercased, identifiers lowercased
	pos  int    // byte offset in the input, for error messages
}

// span is one token as offsets into the input: the text it was lexed from
// is input[start:end] (a string literal's with its quotes). kw indexes
// keywordText for a keyword.
type span struct {
	start, end int
	kind       tokenKind
	kw         uint8
}

// keywordText is every keyword in its canonical spelling; index 0 is no
// keyword.
var keywordText = [...]string{"",
	"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "BETWEEN", "IN", "GROUP",
	"BY", "ORDER", "ASC", "DESC", "LIMIT", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
	"DELETE", "CREATE", "TABLE", "INDEX", "ON", "COUNT", "SUM", "AVG", "MIN", "MAX",
	"INT", "FLOAT", "STRING", "NULL", "DISTINCT", "EXPLAIN", "ANALYZE",
	"SHOW", "STATS", "QUERIES", "METRICS", "HISTORY", "LAST", "ACCURACY", "DRIFT", "FOR",
}

// keywordsOfLen lists the keywordText indexes of the keywords of each length.
var keywordsOfLen = func() (byLen [len("DISTINCT") + 1][]uint8) {
	for k := 1; k < len(keywordText); k++ {
		n := len(keywordText[k])
		byLen[n] = append(byLen[n], uint8(k))
	}
	return byLen
}()

// keyword returns the keywordText index of word read in any case, 0 when it
// is no keyword. The keywords of word's length are compared byte by byte,
// each byte of word uppercased by clearing its case bit (exact: keywords are
// letters only), so no uppercase string is built. A word that is not ASCII
// is uppercased first: strings.ToUpper decides what ſelect spells.
func keyword(word string, ascii bool) uint8 {
	if !ascii {
		word = strings.ToUpper(word)
	}
	if len(word) >= len(keywordsOfLen) {
		return 0
	}
next:
	for _, k := range keywordsOfLen[len(word)] {
		kw := keywordText[k]
		for i := 0; i < len(word); i++ {
			if word[i]&^0x20 != kw[i] {
				continue next
			}
		}
		return k
	}
	return 0
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
// A probed SELECT is scanned once into spans instead (Lexed).
type lexer struct {
	input string
	i     int
	prev  span // the span before the one being scanned; the zero span (EOF) at the start
}

// lexHook, when set, sees every text that is lexed: the counter seam of the
// package's tests. Nothing else sets it.
var lexHook func(input string)

// newLexer returns a lexer at the start of input.
func newLexer(input string) lexer {
	if lexHook != nil {
		lexHook(input)
	}
	return lexer{input: input}
}

// next returns the next token; at the end of the input, tokEOF, again and
// again. After an error the lexer must not be used further.
func (lx *lexer) next() (token, error) {
	sp, err := lx.scan()
	if err != nil {
		return token{}, err
	}
	return sp.token(lx.input), nil
}

// token returns the span's canonical text as the parser reads it.
func (sp span) token(input string) token {
	t := token{kind: sp.kind, pos: sp.start}
	raw := input[sp.start:sp.end]
	switch sp.kind {
	case tokKeyword:
		t.text = keywordText[sp.kw]
	case tokIdent:
		t.text = strings.ToLower(raw)
	case tokString:
		t.text = raw[1 : len(raw)-1]
		if strings.IndexByte(t.text, '\'') >= 0 { // every quote inside is an escaped pair
			t.text = strings.ReplaceAll(t.text, "''", "'")
		}
	case tokOp:
		t.text = raw
		if raw == "!=" {
			t.text = "<>"
		}
	default:
		t.text = raw
	}
	return t
}

// emit records the token input[start:end] as the latest and returns it.
func (lx *lexer) emit(kind tokenKind, start, end int) (span, error) {
	lx.i = end
	lx.prev = span{start: start, end: end, kind: kind}
	return lx.prev, nil
}

// scan returns the next span; at the end of the input, tokEOF, again and
// again. After an error the lexer must not be used further.
func (lx *lexer) scan() (span, error) {
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
			for i++; ; i++ {
				if i >= n {
					return span{}, &lexError{pos: start, msg: "unterminated string literal"}
				}
				if input[i] != '\'' {
					continue
				}
				if i+1 < n && input[i+1] == '\'' { // escaped quote
					i++
					continue
				}
				break
			}
			return lx.emit(tokString, start, i+1)
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' && startsValue(lx.prev, input)):
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
			return lx.emit(tokNumber, start, i)
		case c >= utf8.RuneSelf || isIdentStart(rune(c)):
			start := i
			// An ASCII run needs no rune decoding; the first byte that is
			// not ASCII sends the rest of the word down the rune loop.
			for i < n && identASCII[input[i]] {
				i++
			}
			ascii := i == n || input[i] < utf8.RuneSelf
			if !ascii {
				if i == start {
					r, size := utf8.DecodeRuneInString(input[i:])
					if !isIdentStart(r) {
						return span{}, &lexError{pos: start, msg: fmt.Sprintf("unexpected character %q", r)}
					}
					i += size
				}
				for i < n {
					r, size := utf8.DecodeRuneInString(input[i:])
					if !isIdentPart(r) {
						break
					}
					i += size
				}
			}
			if kw := keyword(input[start:i], ascii); kw != 0 {
				lx.i = i
				lx.prev = span{start: start, end: i, kind: tokKeyword, kw: kw}
				return lx.prev, nil
			}
			return lx.emit(tokIdent, start, i)
		default:
			start := i
			switch c {
			case '(', ')', ',', '.', ';', '*':
				return lx.emit(tokSymbol, start, i+1)
			case '=':
				return lx.emit(tokOp, start, i+1)
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					return lx.emit(tokOp, start, i+2)
				}
				return lx.emit(tokOp, start, i+1)
			case '>':
				if i+1 < n && input[i+1] == '=' {
					return lx.emit(tokOp, start, i+2)
				}
				return lx.emit(tokOp, start, i+1)
			case '!':
				if i+1 < n && input[i+1] == '=' {
					return lx.emit(tokOp, start, i+2)
				}
				return span{}, &lexError{pos: start, msg: "unexpected '!'"}
			case '-':
				// A '-' that is not a numeric sign: unsupported arithmetic.
				return span{}, &lexError{pos: start, msg: "unexpected '-' (arithmetic expressions are not supported)"}
			default:
				return span{}, &lexError{pos: start, msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	return lx.emit(tokEOF, n, n)
}

// identASCII marks the ASCII bytes an identifier may continue with.
var identASCII = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = isIdentPart(rune(c))
	}
	return t
}()

// startsValue reports whether a '-' after prev begins a negative numeric
// literal: true at the start of the input, after operators, commas, opening
// parens, and the value-introducing keywords.
func startsValue(prev span, input string) bool {
	switch prev.kind {
	case tokEOF: // nothing scanned yet
		return true
	case tokOp:
		return true
	case tokSymbol:
		return input[prev.start] == '(' || input[prev.start] == ','
	case tokKeyword:
		switch keywordText[prev.kw] {
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
