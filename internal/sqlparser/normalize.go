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
	lx := lexer{input: sql}
	var sb strings.Builder
	sb.Grow(len(sql))
	semis := 0 // semicolons seen since the last other token: trailing ones are dropped
	for {
		t, err := lx.next()
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
