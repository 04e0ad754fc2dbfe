package sqlparser

import (
	"errors"
	"strings"
	"testing"
)

// lex drains the lexer: the whole token stream, EOF included.
func lex(input string) ([]token, error) {
	lx := lexer{input: input}
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		if toks = append(toks, t); t.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("SELECT -- trailing comment at EOF")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].text != "SELECT" || toks[1].kind != tokEOF {
		t.Errorf("tokens = %+v", toks)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"2.5":    "2.5",
		"1e3":    "1e3",
		"1E+3":   "1E+3",
		"2.5e-1": "2.5e-1",
		"1.2.3":  "1.2", // second dot ends the number
	}
	for in, want := range cases {
		toks, err := lex(in)
		if err != nil {
			t.Fatalf("lex(%q): %v", in, err)
		}
		if toks[0].kind != tokNumber || toks[0].text != want {
			t.Errorf("lex(%q) first token = %q (%d)", in, toks[0].text, toks[0].kind)
		}
	}
}

func TestLexNegativeNumberContexts(t *testing.T) {
	// After an operator: a sign.
	toks, err := lex("x = -5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].kind != tokNumber || toks[2].text != "-5" {
		t.Errorf("tokens = %+v", toks)
	}
	// After an identifier: arithmetic, rejected.
	if _, err := lex("x -5"); err == nil {
		t.Error("identifier minus number must be rejected")
	}
	// In a VALUES list and after commas and parens.
	toks, err = lex("VALUES (-1, -2)")
	if err != nil {
		t.Fatal(err)
	}
	nums := 0
	for _, tok := range toks {
		if tok.kind == tokNumber {
			nums++
			if !strings.HasPrefix(tok.text, "-") {
				t.Errorf("number %q lost its sign", tok.text)
			}
		}
	}
	if nums != 2 {
		t.Errorf("numbers = %d", nums)
	}
	// At the very start of the input.
	toks, err = lex("-7")
	if err != nil || toks[0].text != "-7" {
		t.Errorf("leading negative: %+v, %v", toks, err)
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"x ! y", "#", "a @ b", "'open"} {
		if _, err := lex(in); err == nil {
			t.Errorf("lex(%q): expected error", in)
		}
	}
	// Error messages carry offsets.
	_, err := lex("abc #")
	if err == nil || !strings.Contains(err.Error(), "offset 4") {
		t.Errorf("error = %v, want offset 4", err)
	}
}

func TestLexBangEquals(t *testing.T) {
	toks, err := lex("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokOp || toks[1].text != "<>" {
		t.Errorf("!= normalized to %q", toks[1].text)
	}
}

func TestLexUnicodeIdentifiers(t *testing.T) {
	toks, err := lex("sélect_col")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != "sélect_col" {
		t.Errorf("unicode ident = %+v", toks[0])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex("'a''b'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "a'b" {
		t.Errorf("escaped string = %q", toks[0].text)
	}
	// Empty string literal.
	toks, err = lex("''")
	if err != nil || toks[0].text != "" {
		t.Errorf("empty string = %+v, %v", toks, err)
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse(`EXPLAIN SELECT a FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok {
		t.Fatalf("stmt = %T", stmt)
	}
	if len(ex.Select.Where) != 1 {
		t.Errorf("inner where = %d", len(ex.Select.Where))
	}
	if ex.Analyze {
		t.Error("plain EXPLAIN must not set Analyze")
	}
	if _, err := Parse(`EXPLAIN DELETE FROM t`); err == nil {
		t.Error("EXPLAIN DELETE must fail")
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse(`EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok {
		t.Fatalf("stmt = %T", stmt)
	}
	if !ex.Analyze {
		t.Error("EXPLAIN ANALYZE must set Analyze")
	}
	if len(ex.Select.Where) != 1 {
		t.Errorf("inner where = %d", len(ex.Select.Where))
	}
	if _, err := Parse(`EXPLAIN ANALYZE`); err == nil {
		t.Error("bare EXPLAIN ANALYZE must fail")
	}
	if _, err := Parse(`EXPLAIN ANALYZE UPDATE t SET a = 1`); err == nil {
		t.Error("EXPLAIN ANALYZE of DML must fail")
	}
}

func TestParseInSubqueryAST(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	sub, ok := sel.Where[0].(*InSubquery)
	if !ok {
		t.Fatalf("where[0] = %T", sel.Where[0])
	}
	if sub.Col.Column != "b" || len(sub.Select.Where) != 1 {
		t.Errorf("subquery = %+v", sub)
	}
	if got := sub.String(); got != "b IN (SELECT ...)" {
		t.Errorf("String() = %q", got)
	}
	// Missing closing paren.
	if _, err := Parse(`SELECT a FROM t WHERE b IN (SELECT c FROM u`); err == nil {
		t.Error("unclosed subquery must fail")
	}
}

func TestAggKindStrings(t *testing.T) {
	want := map[AggKind]string{
		AggNone: "", AggCount: "COUNT", AggSum: "SUM",
		AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestCompareOpStrings(t *testing.T) {
	want := map[CompareOp]string{
		OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=",
		OpGT: ">", OpGE: ">=", CompareOp(9): "?",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("op %d = %q, want %q", op, op.String(), s)
		}
	}
}

// A multi-row INSERT is scanned without a token slice and without copying
// its literals: token text aliases the statement wherever the two are
// byte-identical, so the lexer allocates nothing however long the text is.
func TestLexInsertTextWithoutCopies(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO accidents (id, carid, driver, damage) VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(17, -4, 'Ada Lovelace', 1250.5)")
	}
	sql := sb.String()
	tokens := 0
	allocs := testing.AllocsPerRun(5, func() {
		lx := lexer{input: sql}
		for tokens = 0; ; tokens++ {
			tok, err := lx.next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.kind == tokEOF {
				break
			}
		}
	})
	if tokens != 13+2000*10-1 {
		t.Errorf("scanned %d tokens", tokens)
	}
	if allocs != 0 {
		t.Errorf("lexing %d bytes allocated %.0f times, want 0", len(sql), allocs)
	}
}

// The parser pulls tokens as it goes, but input that does not lex is still
// reported as that — with the lexer's offset — even when the parser would
// have given up earlier in the text.
func TestParseReportsLexErrorPastASyntaxError(t *testing.T) {
	for sql, offset := range map[string]string{
		"SELECT FROM car WHERE #":       "offset 22",
		"INSERT car VALUES (1, 'open":   "offset 22",
		"DELETE FROM car WHERE x = 1 @": "offset 28",
	} {
		_, err := Parse(sql)
		var le *lexError
		if !errors.As(err, &le) || !strings.Contains(err.Error(), offset) {
			t.Errorf("Parse(%q) = %v, want a lex error at %s", sql, err, offset)
		}
	}
}

// Every keyword is recognized in any case (the lookup uppercases into a
// buffer sized for the longest of them).
func TestLexKeywordsInAnyCase(t *testing.T) {
	for kw := range keywords {
		for _, in := range []string{kw, strings.ToLower(kw), kw[:1] + strings.ToLower(kw[1:])} {
			toks, err := lex(in)
			if err != nil || toks[0].kind != tokKeyword || toks[0].text != kw {
				t.Errorf("lex(%q) = %+v, %v, want keyword %s", in, toks, err, kw)
			}
		}
		if toks, err := lex(kw + "x"); err != nil || toks[0].kind != tokIdent {
			t.Errorf("lex(%q) = %+v, %v, want an identifier", kw+"x", toks, err)
		}
	}
	// U+017F uppercases to S: strings.ToUpper's verdict stands.
	if toks, err := lex("ſelect"); err != nil || toks[0].kind != tokKeyword || toks[0].text != "SELECT" {
		t.Errorf("lex(ſelect) = %+v, %v", toks, err)
	}
}
