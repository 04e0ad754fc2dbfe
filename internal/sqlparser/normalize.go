package sqlparser

import "strings"

// Normalize returns the canonical text of one SQL statement, the form the
// engine's plan cache uses as its key. It lexes the input and re-emits the
// token stream joined by single spaces, with keywords uppercased and
// identifiers lowercased exactly as the lexer already canonicalizes them.
// Consequently two statements that differ only in whitespace, comments, or
// keyword/identifier case normalize identically, while any semantic
// difference — another literal value, operator, column, or clause —
// yields a different token stream and therefore a different key.
//
// String literals are preserved byte-for-byte (re-quoted, any embedded
// quote doubled): 'Toyota' and 'toyota' must never share a cache
// entry. Numeric literals keep their lexed spelling, so 1 and 1.0 stay
// distinct (they parse to different datum kinds). Trailing semicolons are
// dropped — they do not change the parsed statement.
//
// The error is the lexer's: input that cannot be tokenized cannot be
// normalized (and would not parse either).
func Normalize(sql string) (string, error) {
	lx := newLexer(sql)
	return normalize(len(sql), lx.next)
}

// normalize writes Normalize's text of the tokens next returns, up to EOF;
// size is the text's length, what the key is sized for.
func normalize(size int, next func() (token, error)) (string, error) {
	var sb strings.Builder
	sb.Grow(size)
	semis := 0 // semicolons seen since the last other token: trailing ones are dropped
	for {
		t, err := next()
		if err != nil {
			return "", err
		}
		switch {
		case t.kind == tokEOF:
			return sb.String(), nil
		case t.kind == tokSymbol && t.text == ";":
			semis++
			continue
		}
		for ; semis > 0; semis-- {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte(';')
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if t.kind == tokString {
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			sb.WriteByte('\'')
			continue
		}
		sb.WriteString(t.text)
	}
}

// Lexed is a SELECT's text lexed once, for the plan cache's probe and, on a
// miss, the parse: its tokens as offsets into the text, no text copied.
// LexSelect writes Normalize's key as it lexes, and Parse is Parse's
// statement, built from the tokens. A statement of more than len(tokens)
// tokens keeps none: its key needs none, and a miss parses its text again.
// The zero Lexed is ready for LexSelect; it is meant to live on its user's
// stack, so a probe allocates only its key.
type Lexed struct {
	input  string
	n      int      // tokens, EOF included
	tokens [32]span // the first len(tokens) of them
}

// LexSelect lexes sql into l when its first token is the keyword SELECT,
// the only statement the plan cache stores, and returns its key, Normalize
// of sql. It reports false for any other statement, at the cost of its
// first token, and for text that does not lex: both are parsed from the
// text, whose lexer reports the error.
func (l *Lexed) LexSelect(sql string) (key string, ok bool) {
	lx := lexer{input: sql}
	first, err := lx.scan()
	if err != nil || first.kind != tokKeyword || keywordText[first.kw] != "SELECT" {
		return "", false
	}
	if lexHook != nil {
		lexHook(sql)
	}
	*l = Lexed{input: sql}
	key, err = normalize(len(sql), func() (token, error) {
		sp := first
		if l.n > 0 {
			var err error
			if sp, err = lx.scan(); err != nil {
				return token{}, err
			}
		}
		if l.n < len(l.tokens) {
			l.tokens[l.n] = sp
		}
		l.n++
		return sp.token(sql), nil
	})
	return key, err == nil
}

// Parse parses the lexed statement: Parse of its text, from its tokens when
// l kept them.
func (l *Lexed) Parse() (Statement, error) {
	if l.n > len(l.tokens) {
		return Parse(l.input)
	}
	return parse(&parser{lexed: *l})
}
