package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

const (
	// dataSeed fixes the generated database; only the statement list
	// follows --seed.
	dataSeed = 42
	// defaultSeed is the statement seed `run`, `trace` and `verify` use
	// when none is given; holdoutSeed is the one kept out of development.
	// Both have their workload digests committed in digests.json.
	defaultSeed = 1
	holdoutSeed = 7
)

// item is one statement of a workload list with the digest the oracle twin
// produced for it.
type item struct {
	sql   string
	query bool
	want  uint64
}

// sizing is what the smoke test shrinks: database scale, timed SELECTs per
// round (and per session when served), and untimed warm-up statements.
type sizing struct {
	scale float64
	n     int
	warm  int
}

// spec describes one named workload.
type spec struct {
	name string
	why  string
	size sizing
	// smax is the JITS sensitivity threshold: 0.5 is the paper's default,
	// 0 collects every candidate statistic on every query.
	smax float64
	// planCache is engine.Config.PlanCacheSize (0 = off).
	planCache int
	// sessions > 0 runs the list through internal/server and that many
	// internal/client sessions instead of embedded Exec calls.
	sessions int
	// gen builds the warm-up and timed lists from the statement seed alone.
	gen func(ds *workload.Dataset, sz sizing, seed int64) (warm, timed []item, err error)
	// warmWithList makes the timed list its own warm-up pass.
	warmWithList bool
}

var specs = []*spec{
	{
		name: "paper_mixed",
		why:  "The paper's query stream with a DML statement every 8 SELECTs, cold start, cache off: executor dominates and writes run beside reads.",
		size: sizing{scale: 0.01, n: 480},
		smax: 0.5,
		gen:  genPaperMixed,
	},
	{
		name: "collect_all",
		why:  "Read-only paper queries with s_max 0, so every statement samples and materializes: sampling, core and histogram dominate, executor is the minority.",
		size: sizing{scale: 0.01, n: 360},
		smax: 0,
		gen:  genCollectAll,
	},
	{
		name:      "oltp_point",
		why:       "Zipf-keyed indexed point lookups with the plan cache on: parse, QGM, sensitivity analysis, optimizer, cache hit and miss paths are the wall, execution is a probe.",
		size:      sizing{scale: 0.02, n: 60000, warm: 2000},
		smax:      0.5,
		planCache: -1,
		gen:       genOLTPPoint,
	},
	{
		name:         "served_fetch",
		why:          "Range SELECTs returning 50-5000 rows through server, wire and a client session with a warm plan cache: row encode and decode dominate.",
		size:         sizing{scale: 0.02, n: 96},
		smax:         0.5,
		planCache:    -1,
		sessions:     1,
		gen:          genServedFetch,
		warmWithList: true,
	},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// lookupSpec resolves a workload name; an unknown name is an error that
// lists the valid ones, never a silent no-op.
func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

// newEngine builds and loads one engine for the workload. planCache
// overrides the spec's cache size: the staged driver keeps its own cache
// and runs the engine with none.
func (s *spec) newEngine(sz sizing, planCache int) (*engine.Engine, *workload.Dataset, error) {
	cfg := core.DefaultConfig()
	cfg.SMax = s.smax
	e := engine.New(engine.Config{JITS: cfg, Parallelism: 1, PlanCacheSize: planCache})
	ds, err := workload.Load(e, workload.Spec{Scale: sz.scale, Seed: dataSeed})
	if err != nil {
		return nil, nil, err
	}
	return e, ds, nil
}

// newTwin builds the oracle: the same data with JITS off and general
// catalog statistics — different estimates and plans, same answers.
func newTwin(sz sizing) (*engine.Engine, *workload.Dataset, error) {
	e := engine.New(engine.Config{Parallelism: 1})
	ds, err := workload.Load(e, workload.Spec{Scale: sz.scale, Seed: dataSeed})
	if err != nil {
		return nil, nil, err
	}
	if err := e.RunstatsAll(); err != nil {
		return nil, nil, err
	}
	return e, ds, nil
}

// selectClass names a generated SELECT's template: everything before its
// WHERE clause is constant per template.
func selectClass(sql string) string {
	if i := strings.Index(sql, " WHERE "); i >= 0 {
		return sql[:i]
	}
	return sql
}

// dmlClass names a generated DML statement's kind by its first three words
// ("UPDATE car SET", "INSERT INTO accidents", …).
func dmlClass(sql string) string {
	f := strings.SplitN(sql, " ", 4) // bulk INSERTs run to 100 KB: do not split them whole
	return strings.Join(f[:min(3, len(f))], " ")
}

// constants returns the literals of a statement's WHERE clause, in order:
// quoted strings and numbers.
func constants(sql string) []string {
	i := strings.Index(sql, " WHERE ")
	if i < 0 {
		return nil
	}
	var out []string
	for sql = sql[i:]; len(sql) > 0; {
		switch c := sql[0]; {
		case c == '\'':
			end := strings.IndexByte(sql[1:], '\'')
			if end < 0 {
				return out
			}
			out = append(out, sql[1:1+end])
			sql = sql[end+2:]
		case c >= '0' && c <= '9':
			n := strings.IndexFunc(sql, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
			if n < 0 {
				n = len(sql)
			}
			out = append(out, sql[:n])
			sql = sql[n:]
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			// Skip an identifier whole, digits included.
			n := strings.IndexFunc(sql, func(r rune) bool {
				return r != '_' && (r < '0' || r > '9') && (r < 'a' || r > 'z') && (r < 'A' || r > 'Z')
			})
			if n < 0 {
				n = len(sql)
			}
			sql = sql[n:]
		default:
			sql = sql[1:]
		}
	}
	return out
}

// stratify draws, in pool order, per statements of each class; balanced
// additionally keeps every constant of the class's WHERE clause as evenly
// spread over its values as the quota allows (no value more than
// ceil(per/values) times). It reports false unless exactly classes classes
// filled their quota.
//
// internal/workload picks templates and constants at random. With a few
// hundred statements per round that alone moves every metric by about 10 %
// from seed to seed — which make a query names decides how many rows it
// joins — so the lists fix the template mix and each constant's marginal
// distribution, and leave the pairing of constants and the order of
// statements to the seed.
func stratify(pool []workload.Statement, classOf func(string) string, classes, per int, balanced bool) ([]workload.Statement, bool) {
	type class struct {
		values []map[string]int // per constant position: value → times drawn
		taken  int
	}
	byClass := make(map[string]*class)
	of := make([]*class, len(pool))
	consts := make([][]string, len(pool))
	for i, s := range pool {
		name := classOf(s.SQL)
		c := byClass[name]
		if c == nil {
			c = &class{}
			byClass[name] = c
		}
		of[i], consts[i] = c, constants(s.SQL)
		for j, v := range consts[i] {
			if j == len(c.values) {
				c.values = append(c.values, make(map[string]int))
			}
			c.values[j][v] = 0
		}
	}
	var out []workload.Statement
	for i, s := range pool {
		c := of[i]
		if c.taken == per {
			continue
		}
		fits := true
		for j, v := range consts[i] {
			if limit := (per + len(c.values[j]) - 1) / len(c.values[j]); balanced && c.values[j][v] >= limit {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for j, v := range consts[i] {
			c.values[j][v]++
		}
		c.taken++
		out = append(out, s)
	}
	return out, len(byClass) == classes && len(out) == classes*per
}

// cyclic reorders stmts so that classes repeat in a fixed cycle (sorted
// class names), keeping each class's own order: which kind of statement
// runs when is then the same for every seed.
func cyclic(stmts []workload.Statement, classOf func(string) string) []workload.Statement {
	by := make(map[string][]workload.Statement)
	for _, s := range stmts {
		by[classOf(s.SQL)] = append(by[classOf(s.SQL)], s)
	}
	keys := sortedKeys(by)
	var out []workload.Statement
	for len(out) < len(stmts) {
		for _, k := range keys {
			if len(by[k]) > 0 {
				out = append(out, by[k][0])
				by[k] = by[k][1:]
			}
		}
	}
	return out
}

// draw stratifies ever larger pools until every class fills its quota,
// balanced if the generator's stream allows it at all, and returns the
// statements in cyclic class order.
func draw(n int, generate func(pool int) []workload.Statement, classOf func(string) string, classes, per int) ([]workload.Statement, error) {
	for _, balanced := range []bool{true, false} {
		for pool := 8 * n; pool <= 32*n; pool *= 2 {
			if out, ok := stratify(generate(pool), classOf, classes, per, balanced); ok {
				return cyclic(out, classOf), nil
			}
		}
	}
	return nil, fmt.Errorf("workload generator did not yield %d statements of each of %d kinds", per, classes)
}

const (
	selectTemplates = 6 // templates of workload.Dataset.Queries
	dmlKinds        = 6 // statement kinds of the workload's update batches
)

// noLimit drops the one LIMIT the generator emits without an ORDER BY:
// which rows survive it depends on the plan, and digests must not.
func noLimit(stmts []workload.Statement) []workload.Statement {
	for i := range stmts {
		stmts[i].SQL = strings.TrimSuffix(stmts[i].SQL, " LIMIT 500")
	}
	return stmts
}

// paperSelects draws sz.n SELECTs of the paper's stream, equal shares of
// the six templates.
func paperSelects(ds *workload.Dataset, sz sizing, seed int64) ([]workload.Statement, error) {
	per := max(sz.n/selectTemplates, 1)
	return draw(sz.n, func(pool int) []workload.Statement { return noLimit(ds.Queries(pool, seed)) },
		selectClass, selectTemplates, per)
}

// paperDML draws one DML statement per eight SELECTs from the update
// batches of the paper's stream, equal shares of the six kinds. The stream
// comes from the data seed, not the statement seed: the updates are the
// environment the queries run in, the same for every seed. Which bulk DELETE
// lands before which query decides the data every later plan sees, and drawn
// per seed it moved the simulated total by 10-14 % between seeds (5 % with
// the stream fixed).
func paperDML(ds *workload.Dataset, sz sizing) ([]workload.Statement, error) {
	per := max(sz.n/8/dmlKinds, 1)
	return draw(sz.n, func(pool int) []workload.Statement {
		var dml []workload.Statement
		for _, s := range ds.Workload(pool, dataSeed, true) {
			if !s.IsQuery {
				dml = append(dml, s)
			}
		}
		return dml
	}, dmlClass, dmlKinds, per)
}

// genPaperMixed puts one statement of the update stream after every eight of
// the seed's SELECTs.
func genPaperMixed(ds *workload.Dataset, sz sizing, seed int64) (warm, timed []item, err error) {
	selects, err := paperSelects(ds, sz, seed)
	if err != nil {
		return nil, nil, err
	}
	dml, err := paperDML(ds, sz)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range selects {
		timed = append(timed, item{sql: s.SQL, query: true})
		if i%8 == 7 && len(dml) > 0 {
			timed = append(timed, item{sql: dml[0].SQL})
			dml = dml[1:]
		}
	}
	return nil, timed, nil
}

func genCollectAll(ds *workload.Dataset, sz sizing, seed int64) (warm, timed []item, err error) {
	selects, err := paperSelects(ds, sz, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range selects {
		timed = append(timed, item{sql: s.SQL, query: true})
	}
	return nil, timed, nil
}

// genOLTPPoint emits the four lookup shapes of workload.OLTPQueries with
// keys drawn Zipf(1.1): a few hundred hot keys stay in the 256-entry plan
// cache, the tail misses and evicts, so both cache paths are priced.
func genOLTPPoint(ds *workload.Dataset, sz sizing, seed int64) (warm, timed []item, err error) {
	rows := ds.Spec.Rows()
	r := rand.New(rand.NewSource(seed))
	zipf := func(n int) *rand.Zipf { return rand.NewZipf(r, 1.1, 1, uint64(n-1)) }
	owners, cars := zipf(rows["owner"]), zipf(rows["car"])
	next := func() item {
		var sql string
		switch r.Intn(4) {
		case 0:
			sql = fmt.Sprintf(`SELECT name, city FROM owner WHERE id = %d`, owners.Uint64())
		case 1:
			sql = fmt.Sprintf(`SELECT make, model, price FROM car WHERE id = %d`, cars.Uint64())
		case 2:
			sql = fmt.Sprintf(`SELECT id FROM car WHERE ownerid = %d`, owners.Uint64())
		default:
			sql = fmt.Sprintf(`SELECT damage, severity FROM accidents WHERE carid = %d`, cars.Uint64())
		}
		return item{sql: sql, query: true}
	}
	for i := 0; i < sz.warm; i++ {
		warm = append(warm, next())
	}
	for i := 0; i < sz.n; i++ {
		timed = append(timed, next())
	}
	return warm, timed, nil
}

// genServedFetch emits sz.n distinct LIMIT-free range SELECTs. Result sizes
// follow a fixed ladder from 50 to 5000 rows and widths cycle through six
// shapes of 3 to 7 columns, so the bytes crossing the wire are the same for
// every seed; the seed places each range and orders the list.
func genServedFetch(ds *workload.Dataset, sz sizing, seed int64) (warm, timed []item, err error) {
	rows := ds.Spec.Rows()
	r := rand.New(rand.NewSource(seed))
	shapes := []struct {
		table, cols, key string
		perKey           int // result rows per key value
	}{
		{"owner", "id, name, city", "id", 1},
		{"owner", "id, name, city, country, salary", "id", 1},
		{"car", "id, make, model, year, price", "id", 1},
		{"car", "id, ownerid, make, model, year, price, color", "id", 1},
		{"accidents", "id, carid, damage, severity", "id", 1},
		{"accidents", "id, carid, driver, damage, year, severity, location", "carid", 3},
	}
	for i := 0; i < sz.n; i++ {
		sh := shapes[i%len(shapes)]
		want := 50
		if sz.n > 1 {
			want += i * 4950 / (sz.n - 1)
		}
		keys := rows[sh.table]
		if sh.key == "carid" {
			keys = rows["car"]
		}
		span := want / sh.perKey
		if span > keys/2 {
			span = keys / 2
		}
		lo := r.Intn(keys - span)
		timed = append(timed, item{query: true, sql: fmt.Sprintf(
			`SELECT %s FROM %s WHERE %s BETWEEN %d AND %d`, sh.cols, sh.table, sh.key, lo, lo+span-1)})
	}
	r.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	return nil, timed, nil
}

// rotate returns list starting at offset k, wrapping around: the second
// served session replays the same statements half a list out of phase.
func rotate(list []item, k int) []item {
	if len(list) == 0 {
		return list
	}
	k %= len(list)
	return append(append([]item(nil), list[k:]...), list[:k]...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
