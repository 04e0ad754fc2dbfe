package sqlparser

import (
	"fmt"

	"repro/internal/value"
)

// ParseError is a syntax error with the byte offset where it was detected.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at offset %d: %s", e.Pos, e.Msg)
}

// parser pulls tokens from the lexer with one token of lookahead, or, for a
// statement lexed once (Lexed), from its spans.
//
// The lexed tokens are the parser's own copy: a parser's fields leak to the
// AST as one, and a pointer to its caller's Lexed would move that to the
// heap.
type parser struct {
	lx     lexer
	lexed  Lexed // the statement's tokens when it was lexed once (lexed.n > 0)
	at     int   // lexed's next token
	tok    token // the lookahead
	lexErr error // the lexer's error, once it has one; tok reads as EOF from then on
}

// Parse parses a single SQL statement (trailing semicolons are allowed, as
// Normalize drops them all).
func Parse(input string) (Statement, error) {
	return parse(&parser{lx: newLexer(input)})
}

// parse parses the statement p reads.
func parse(p *parser) (Statement, error) {
	p.advance()
	stmt, err := p.parseStatement()
	if err == nil {
		for p.peek().kind == tokSymbol && p.peek().text == ";" {
			p.next()
		}
		if p.peek().kind != tokEOF {
			err = p.errorf("unexpected trailing input %q", p.peek().text)
		}
	}
	// Input that does not lex is reported as that, wherever the parser gave
	// up: scan what it left unread.
	for p.lexErr == nil && p.tok.kind != tokEOF {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) advance() {
	if p.lexed.n > 0 {
		p.tok = p.lexed.tokens[p.at].token(p.lexed.input)
		if p.at < p.lexed.n-1 { // EOF, the last token, repeats
			p.at++
		}
		return
	}
	if p.lexErr != nil {
		return
	}
	if p.tok, p.lexErr = p.lx.next(); p.lexErr != nil {
		p.tok = token{kind: tokEOF, pos: len(p.lx.input)}
	}
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, found %q", kw, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != sym {
		return p.errorf("expected %q, found %q", sym, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected a statement keyword, found %q", t.text)
	}
	switch t.text {
	case "EXPLAIN":
		p.next()
		if p.acceptKeyword("HISTORY") {
			qid, err := p.parseNonNegativeInt("statement qid")
			if err != nil {
				return nil, err
			}
			return &ExplainHistoryStmt{QID: qid}, nil
		}
		analyze := p.acceptKeyword("ANALYZE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel, Analyze: analyze}, nil
	case "SHOW":
		return p.parseShow()
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

// parseShow parses the introspection statements: SHOW STATS, SHOW QUERIES
// [LAST n], SHOW METRICS, SHOW ACCURACY [FOR <table>], SHOW DRIFT. The
// SHOW keyword is still pending.
func (p *parser) parseShow() (Statement, error) {
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("STATS"):
		return &ShowStmt{Kind: ShowStats}, nil
	case p.acceptKeyword("METRICS"):
		return &ShowStmt{Kind: ShowMetrics}, nil
	case p.acceptKeyword("ACCURACY"):
		stmt := &ShowStmt{Kind: ShowAccuracy}
		if p.acceptKeyword("FOR") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Table = name
		}
		return stmt, nil
	case p.acceptKeyword("DRIFT"):
		return &ShowStmt{Kind: ShowDrift}, nil
	case p.acceptKeyword("QUERIES"):
		stmt := &ShowStmt{Kind: ShowQueries}
		if p.acceptKeyword("LAST") {
			n, err := p.parseNonNegativeInt("LAST count")
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, p.errorf("SHOW QUERIES LAST requires a positive count")
			}
			stmt.Last = int(n)
		}
		return stmt, nil
	default:
		return nil, p.errorf("expected STATS, QUERIES, METRICS, ACCURACY or DRIFT after SHOW, found %q", p.peek().text)
	}
}

// parseNonNegativeInt parses an integer literal ≥ 0; what names it in errors.
func (p *parser) parseNonNegativeInt(what string) (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errorf("expected %s, found %q", what, t.text)
	}
	p.next()
	d, err := value.ParseLiteral(t.text, false)
	if err != nil || d.Kind() != value.KindInt || d.Int() < 0 {
		return 0, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("invalid %s %q", what, t.text)}
	}
	return d.Int(), nil
}

// parseColumnRef parses ident [. ident].
func (p *parser) parseColumnRef() (ColumnRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.acceptSymbol(".") {
		second, err := p.expectIdent()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Qualifier: first, Column: second}, nil
	}
	return ColumnRef{Column: first}, nil
}

// parseLiteral parses a constant: number, string, or NULL.
func (p *parser) parseLiteral() (value.Datum, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		return value.ParseLiteral(t.text, false)
	case t.kind == tokString:
		p.next()
		return value.NewString(t.text), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return value.Null, nil
	default:
		return value.Null, p.errorf("expected a literal, found %q", t.text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	for {
		proj, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		stmt.Projections = append(stmt.Projections, proj)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: name, Alias: name}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
		stmt.From = append(stmt.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		where, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected a number after LIMIT, found %q", t.text)
		}
		p.next()
		d, err := value.ParseLiteral(t.text, false)
		if err != nil || d.Kind() != value.KindInt || d.Int() < 0 {
			return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("invalid LIMIT %q", t.text)}
		}
		stmt.Limit = int(d.Int())
	}

	return stmt, nil
}

func (p *parser) parseSelectExpr() (SelectExpr, error) {
	t := p.peek()
	// Aggregates: COUNT(*), COUNT(col), SUM/AVG/MIN/MAX(col).
	if t.kind == tokKeyword {
		var agg AggKind
		switch t.text {
		case "COUNT":
			agg = AggCount
		case "SUM":
			agg = AggSum
		case "AVG":
			agg = AggAvg
		case "MIN":
			agg = AggMin
		case "MAX":
			agg = AggMax
		default:
			return SelectExpr{}, p.errorf("unexpected keyword %s in select list", t.text)
		}
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return SelectExpr{}, err
		}
		expr := SelectExpr{Agg: agg}
		if p.acceptSymbol("*") {
			if agg != AggCount {
				return SelectExpr{}, p.errorf("%s(*) is not supported", agg)
			}
			expr.Star = true
		} else {
			col, err := p.parseColumnRef()
			if err != nil {
				return SelectExpr{}, err
			}
			expr.Col = col
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectExpr{}, err
		}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return SelectExpr{}, err
			}
			expr.Alias = alias
		}
		return expr, nil
	}
	if p.acceptSymbol("*") {
		return SelectExpr{Star: true}, nil
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return SelectExpr{}, err
	}
	expr := SelectExpr{Col: col}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectExpr{}, err
		}
		expr.Alias = alias
	}
	return expr, nil
}

// parseConjunction parses predicate [AND predicate]... with optional
// parenthesized sub-conjunctions. OR and NOT are rejected with a clear
// message: the engine's scope (like the paper's algorithms) is conjunctive
// predicates.
func (p *parser) parseConjunction() ([]Expr, error) {
	var out []Expr
	for {
		if p.acceptSymbol("(") {
			inner, err := p.parseConjunction()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			out = append(out, inner...)
		} else {
			e, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		t := p.peek()
		if t.kind == tokKeyword && t.text == "OR" {
			return nil, p.errorf("OR is not supported (conjunctive predicates only)")
		}
		if t.kind == tokKeyword && t.text == "AND" {
			p.next()
			continue
		}
		return out, nil
	}
}

func (p *parser) parsePredicate() (Expr, error) {
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		return nil, p.errorf("NOT is not supported (conjunctive predicates only)")
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == tokOp:
		p.next()
		var op CompareOp
		switch t.text {
		case "=":
			op = OpEQ
		case "<>":
			op = OpNE
		case "<":
			op = OpLT
		case "<=":
			op = OpLE
		case ">":
			op = OpGT
		case ">=":
			op = OpGE
		}
		// Right side: column reference or literal.
		rt := p.peek()
		if rt.kind == tokIdent {
			rcol, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			return &Comparison{Left: col, Op: op, RightIsCol: true, RightCol: rcol}, nil
		}
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Comparison{Left: col, Op: op, RightVal: v}, nil

	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Between{Col: col, Lo: lo, Hi: hi}, nil

	case t.kind == tokKeyword && t.text == "IN":
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		// Subquery form: col IN (SELECT ...).
		if inner := p.peek(); inner.kind == tokKeyword && inner.text == "SELECT" {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InSubquery{Col: col, Select: sel}, nil
		}
		var vals []value.Datum
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InList{Col: col, Values: vals}, nil

	default:
		return nil, p.errorf("expected an operator after %s, found %q", col, t.text)
	}
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	// Each row's values are read into vals, then copied into a row of
	// exactly their number: one allocation a row.
	var buf [16]value.Datum
	vals := buf[:0]
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		vals = vals[:0]
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		row := make([]value.Datum, len(vals))
		copy(row, vals)
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokOp || t.text != "=" {
			return nil, p.errorf("expected = in assignment, found %q", t.text)
		}
		p.next()
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Assignments = append(stmt.Assignments, Assignment{Column: col, Value: v})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}
	return stmt, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}
	return stmt, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		stmt := &CreateTableStmt{Name: name}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			t := p.peek()
			if t.kind != tokKeyword {
				return nil, p.errorf("expected a type for column %s, found %q", col, t.text)
			}
			var kind value.Kind
			switch t.text {
			case "INT":
				kind = value.KindInt
			case "FLOAT":
				kind = value.KindFloat
			case "STRING":
				kind = value.KindString
			default:
				return nil, p.errorf("unknown type %s (want INT, FLOAT or STRING)", t.text)
			}
			p.next()
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Kind: kind})
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return stmt, nil

	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil

	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}
