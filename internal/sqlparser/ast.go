package sqlparser

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnRef names a column, optionally qualified by a table name or alias.
type ColumnRef struct {
	Qualifier string // "" when unqualified
	Column    string
}

// String renders the reference in qualified dotted form.
func (c ColumnRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

// Aggregate kinds; AggNone marks a plain column projection.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// SelectExpr is one projection item.
type SelectExpr struct {
	Star  bool // SELECT * or COUNT(*)
	Agg   AggKind
	Col   ColumnRef
	Alias string
}

// TableRef is one FROM-list entry.
type TableRef struct {
	Table string
	Alias string // defaults to Table when absent
}

// CompareOp enumerates comparison operators.
type CompareOp uint8

// Comparison operators. NE is spelled <> (and != is normalized to it).
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String returns the SQL spelling of the operator.
func (o CompareOp) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// Expr is a WHERE-clause conjunct.
type Expr interface {
	expr()
	String() string
}

// Comparison is `col op constant` or `col op col` (a join predicate).
type Comparison struct {
	Left       ColumnRef
	Op         CompareOp
	RightIsCol bool
	RightCol   ColumnRef
	RightVal   value.Datum
}

func (*Comparison) expr() {}

// String renders the comparison.
func (c *Comparison) String() string {
	if c.RightIsCol {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.RightCol)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.RightVal)
}

// Between is `col BETWEEN lo AND hi` (inclusive both ends).
type Between struct {
	Col    ColumnRef
	Lo, Hi value.Datum
}

func (*Between) expr() {}

// String renders the BETWEEN predicate.
func (b *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", b.Col, b.Lo, b.Hi)
}

// InList is `col IN (v1, v2, ...)`.
type InList struct {
	Col    ColumnRef
	Values []value.Datum
}

func (*InList) expr() {}

// String renders the IN predicate.
func (l *InList) String() string {
	parts := make([]string, len(l.Values))
	for i, v := range l.Values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN (%s)", l.Col, strings.Join(parts, ", "))
}

// InSubquery is `col IN (SELECT ...)` — an uncorrelated subquery producing
// the match set. The rewriter lowers it into its own query block plus a
// semi-join on the outer block.
type InSubquery struct {
	Col    ColumnRef
	Select *SelectStmt
}

func (*InSubquery) expr() {}

// String renders the subquery predicate (without expanding the inner text).
func (s *InSubquery) String() string {
	return fmt.Sprintf("%s IN (SELECT ...)", s.Col)
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// SelectStmt is a single-block SELECT. WHERE is a flattened conjunction.
type SelectStmt struct {
	Distinct    bool
	Projections []SelectExpr
	From        []TableRef
	Where       []Expr
	GroupBy     []ColumnRef
	OrderBy     []OrderItem
	Limit       int // -1 when absent
}

func (*SelectStmt) stmt() {}

// Assignment is one SET item of an UPDATE.
type Assignment struct {
	Column string
	Value  value.Datum
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]value.Datum
}

func (*InsertStmt) stmt() {}

// UpdateStmt is UPDATE t SET col = v, ... [WHERE conjunction].
type UpdateStmt struct {
	Table       string
	Assignments []Assignment
	Where       []Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM t [WHERE conjunction].
type DeleteStmt struct {
	Table string
	Where []Expr
}

func (*DeleteStmt) stmt() {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// CreateTableStmt is CREATE TABLE t (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is CREATE INDEX name ON t (col).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndexStmt) stmt() {}

// ExplainStmt is EXPLAIN [ANALYZE] SELECT ...: compile (including any JITS
// statistics collection) and show the chosen plan. Plain EXPLAIN does not
// execute; EXPLAIN ANALYZE executes the statement and annotates every plan
// operator with its actual row count, metered work and wall time.
type ExplainStmt struct {
	Select  *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// ShowKind enumerates the introspection SHOW statements.
type ShowKind uint8

// SHOW statement kinds.
const (
	ShowStats    ShowKind = iota // SHOW STATS: archived histograms
	ShowQueries                  // SHOW QUERIES [LAST n]: flight-recorder contents
	ShowMetrics                  // SHOW METRICS: the engine's metric series
	ShowAccuracy                 // SHOW ACCURACY [FOR <table>]: drift accounts
	ShowDrift                    // SHOW DRIFT: drift accounts currently drifted
)

// String returns the SQL spelling of the SHOW target.
func (k ShowKind) String() string {
	switch k {
	case ShowStats:
		return "STATS"
	case ShowQueries:
		return "QUERIES"
	case ShowMetrics:
		return "METRICS"
	case ShowAccuracy:
		return "ACCURACY"
	case ShowDrift:
		return "DRIFT"
	default:
		return "?"
	}
}

// ShowStmt is SHOW STATS | SHOW QUERIES [LAST n] | SHOW METRICS |
// SHOW ACCURACY [FOR <table>] | SHOW DRIFT — the introspection statements
// that return engine state as ordinary result sets.
type ShowStmt struct {
	Kind  ShowKind
	Last  int    // SHOW QUERIES LAST n; 0 means all retained records
	Table string // SHOW ACCURACY FOR <table>; empty means all tables
}

func (*ShowStmt) stmt() {}

// ExplainHistoryStmt is EXPLAIN HISTORY <qid>: replay the flight-recorded
// plan of a past statement with its captured actuals.
type ExplainHistoryStmt struct {
	QID int64
}

func (*ExplainHistoryStmt) stmt() {}
