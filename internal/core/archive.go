package core

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/metrics"
	"repro/internal/qgm"
	"repro/internal/value"
)

// Archive defaults.
const (
	DefaultSpaceBudgetBuckets = 65536
	DefaultMemoCapacity       = 4096
	// MaxGridDims bounds the dimensionality of archive grid histograms;
	// higher-dimensional (or non-boxable) predicate groups are kept in the
	// exact-match memo instead, per the paper's footnote on storing such
	// predicates and their counts separately with LRU pruning.
	MaxGridDims = 3
	// uniformEvictionThreshold: histograms at least this uniform are evicted
	// first under space pressure ("we remove the histograms that are almost
	// uniformly distributed, as they are close to the optimizer's
	// assumptions").
	uniformEvictionThreshold = 0.9
)

// ColumnDomain describes one column's value range as observed in a sample —
// enough to create grid histogram dimensions and convert predicates into
// half-open coordinate boxes.
type ColumnDomain struct {
	Lo, Hi float64 // observed coordinate range (inclusive values)
	Unit   float64 // coordinate width of one value
	Kind   value.Kind
}

type memoEntry struct {
	sel      float64
	ts       int64
	lastUsed int64
}

type gridEntry struct {
	hist  *histogram.Histogram
	cols  []string           // canonical order (sorted)
	units map[string]float64 // per-column equality width
}

type cardEntry struct {
	card int64
	ts   int64
}

type ndvEntry struct {
	ndv int64
	ts  int64
}

// Archive is the QSS repository: adaptive multi-dimensional histograms
// updated with the maximum-entropy strategy, an exact-match selectivity
// memo for groups a grid cannot hold, and fresh table cardinalities. It
// implements the read side consumed by the optimizer through QueryStats.
type Archive struct {
	mu           sync.RWMutex
	grids        map[string]map[qgm.StatName]*gridEntry // table → column-group name → grid
	memo         map[string]*memoEntry                  // predicate-group name → selectivity
	cards        map[string]cardEntry
	ndvs         map[string]ndvEntry // "table.column" → distinct-value estimate
	budget       int                 // total grid buckets allowed
	memoCapacity int
	tally        *archiveTally
}

// archiveTally is an archive's cumulative totals: the selectivity lookups it
// answered from archived statistics and those it could not, and the
// iterative proportional fitting its histogram merges ran (fits, their
// rounds, and the fits that never met every constraint to tolerance). It is
// shared by pointer so an archive restored in place of another continues its
// totals.
type archiveTally struct {
	hits, misses              atomic.Int64
	fits, rounds, unconverged atomic.Int64
}

// NewArchive creates an empty archive. budgetBuckets ≤ 0 and memoCapacity
// ≤ 0 select the defaults.
func NewArchive(budgetBuckets, memoCapacity int) *Archive {
	if budgetBuckets <= 0 {
		budgetBuckets = DefaultSpaceBudgetBuckets
	}
	if memoCapacity <= 0 {
		memoCapacity = DefaultMemoCapacity
	}
	return &Archive{
		grids:        make(map[string]map[qgm.StatName]*gridEntry),
		memo:         make(map[string]*memoEntry),
		cards:        make(map[string]cardEntry),
		ndvs:         make(map[string]ndvEntry),
		budget:       budgetBuckets,
		memoCapacity: memoCapacity,
		tally:        new(archiveTally),
	}
}

// ScrapeArchives appends the qss_archive_* and histogram_ipf_* series to
// set: the totals of every given archive, nil ones skipped.
func ScrapeArchives(set *metrics.Set, archives ...*Archive) {
	var hits, misses, fits, rounds, unconverged int64
	for _, a := range archives {
		if a == nil {
			continue
		}
		hits += a.tally.hits.Load()
		misses += a.tally.misses.Load()
		fits += a.tally.fits.Load()
		rounds += a.tally.rounds.Load()
		unconverged += a.tally.unconverged.Load()
	}
	set.Counter("qss_archive_hits_total",
		"QSS archive selectivity lookups answered from archived statistics.", float64(hits))
	set.Counter("qss_archive_misses_total",
		"QSS archive selectivity lookups that found no usable statistics.", float64(misses))
	set.Counter("histogram_ipf_fits_total",
		"Iterative proportional fitting passes run by histogram updates.", float64(fits))
	set.Counter("histogram_ipf_rounds_total",
		"Rounds run by iterative proportional fitting, over all fits.", float64(rounds))
	set.Counter("histogram_ipf_unconverged_total",
		"Fits that ran every round without meeting every constraint to tolerance.", float64(unconverged))
}

// SetCardinality stores a freshly observed table cardinality.
func (a *Archive) SetCardinality(table string, card int64, ts int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cards[table] = cardEntry{card: card, ts: ts}
}

// Cardinality returns the archived table cardinality, if any.
func (a *Archive) Cardinality(table string) (int64, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	e, ok := a.cards[table]
	return e.card, ok
}

// SetColumnNDV stores a distinct-value estimate for table.column, refreshed
// whenever the table is sampled.
func (a *Archive) SetColumnNDV(table, column string, ndv int64, ts int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ndvs[table+"."+column] = ndvEntry{ndv: ndv, ts: ts}
}

// ColumnNDV returns the archived distinct-value estimate, if any.
func (a *Archive) ColumnNDV(table, column string) (int64, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	e, ok := a.ndvs[table+"."+column]
	return e.ndv, ok
}

// Buckets returns the total grid buckets in use — the space metric the
// budget bounds.
func (a *Archive) Buckets() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.bucketsLocked()
}

func (a *Archive) bucketsLocked() int {
	n := 0
	for _, grids := range a.grids {
		for _, g := range grids {
			n += g.hist.Buckets()
		}
	}
	return n
}

// Histograms returns the number of grid histograms held.
func (a *Archive) Histograms() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, grids := range a.grids {
		n += len(grids)
	}
	return n
}

// putGridLocked files g under its table and column-group name.
func (a *Archive) putGridLocked(name qgm.StatName, g *gridEntry) {
	table := name.Table()
	if a.grids[table] == nil {
		a.grids[table] = make(map[qgm.StatName]*gridEntry)
	}
	a.grids[table][name] = g
}

// MemoEntries returns the number of memoized exact selectivities.
func (a *Archive) MemoEntries() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.memo)
}

// HasStatistic reports whether a histogram (or memoized group) already
// exists on the column group — the first test of Algorithm 4.
func (a *Archive) HasStatistic(table string, cols []string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.grids[table][qgm.ColumnGroup(table, cols)]
	return ok
}

// boxForPreds returns the half-open box a conjunctive predicate group covers
// over cols, the grid's canonical column order: per column, the intersection
// of the coordinate ranges its predicates select. ok is false when a
// predicate is not a range (NE, IN) or names a column outside cols, or when
// the box is empty.
func boxForPreds(cols []string, preds []qgm.Predicate, units map[string]float64) (histogram.Box, bool) {
	box := histogram.FullBox(len(cols))
	for _, p := range preds {
		d := slices.Index(cols, p.Column)
		if d < 0 || !narrow(&box.Lo[d], &box.Hi[d], p, units[p.Column]) {
			return histogram.Box{}, false
		}
	}
	return box, true
}

// narrow intersects [*lo, *hi) with the coordinate interval p selects on a
// column whose values lie unit apart (qgm.Range.Coords). It reports false
// when p is not a range or the intersection is empty.
func narrow(lo, hi *float64, p qgm.Predicate, unit float64) bool {
	if unit <= 0 {
		unit = 1
	}
	r, isRange := p.Range()
	plo, phi, ok := r.Coords(unit)
	if !isRange || !ok {
		return false
	}
	if plo > *lo {
		*lo = plo
	}
	if phi < *hi {
		*hi = phi
	}
	return *lo < *hi
}

// GroupSelectivity answers the optimizer: first from the exact-match memo,
// then from the smallest grid histogram whose columns cover the group's
// columns (unconstrained dimensions stay unbounded). The returned name is
// the statistic used, for estimate provenance.
func (a *Archive) GroupSelectivity(table string, preds []qgm.Predicate, ts int64) (float64, qgm.StatName, bool) {
	if len(preds) == 0 {
		return 1, qgm.StatName{}, false
	}
	pk := qgm.PredicateGroup(table, preds)
	a.mu.Lock()
	defer a.mu.Unlock()

	if m, ok := a.memo[pk.String()]; ok {
		m.lastUsed = ts
		a.tally.hits.Add(1)
		return m.sel, pk, true
	}

	cols := qgm.GroupColumns(preds)
	// Candidate grids: columns are a superset of the group's columns.
	// Prefer the exact match, then the fewest extra dimensions.
	var best *gridEntry
	var bestName qgm.StatName
	for name, g := range a.grids[table] {
		if !containsAll(g.cols, cols) {
			continue
		}
		if best == nil || len(g.cols) < len(best.cols) || (len(g.cols) == len(best.cols) && name.Compare(bestName) < 0) {
			best, bestName = g, name
		}
	}
	if best != nil && best.canAnswer(preds) {
		if box, ok := boxForPreds(best.cols, preds, best.units); ok {
			if sel, err := best.hist.EstimateBox(box); err == nil {
				best.hist.Touch(ts)
				a.tally.hits.Add(1)
				return sel, bestName, true
			}
		}
	}
	a.tally.misses.Add(1)
	return 0, qgm.StatName{}, false
}

// canAnswer reports whether the grid has real knowledge for the predicate
// group. Equality on a string column is a width-1 sliver in a vast
// categorical coordinate space: interpolating it from an uncut cell would
// estimate ≈0 for every constant the grid has never observed, so such
// predicates are answerable only when the constant's explicit cuts exist
// (or the constant falls outside the observed domain, where 0 is exact
// knowledge). Numeric equality and ranges interpolate meaningfully.
func (g *gridEntry) canAnswer(preds []qgm.Predicate) bool {
	for _, p := range preds {
		if p.Op != qgm.OpEQ || p.Value.Kind() != value.KindString {
			continue
		}
		d := slices.Index(g.cols, p.Column)
		if d < 0 {
			return false
		}
		plo, phi := histogram.FullRange()
		narrow(&plo, &phi, p, g.units[p.Column]) // an equality's box: [c, c+unit)
		lo, hi := g.hist.Domain(d)
		outside := phi <= lo || plo >= hi
		if !outside && (!g.hist.HasCut(d, plo) || !g.hist.HasCut(d, phi)) {
			return false
		}
	}
	return true
}

func containsAll(haystack, needles []string) bool {
	for _, n := range needles {
		if !slices.Contains(haystack, n) {
			return false
		}
	}
	return true
}

// Materialize stores an observed group selectivity for reuse: boxable
// groups of at most MaxGridDims distinct columns flow into a grid histogram
// as a maximum-entropy constraint; everything else lands in the exact-match
// memo. domains must describe every referenced column (from the collection
// sample); columns with no observed values make the group memo-only.
// It returns the number of histogram buckets touched, for cost accounting.
func (a *Archive) Materialize(table string, preds []qgm.Predicate, sel float64, ts int64, domains map[string]ColumnDomain) int {
	if len(preds) == 0 {
		return 0
	}
	cols := qgm.GroupColumns(preds)
	a.mu.Lock()
	defer a.mu.Unlock()

	gridable := len(cols) <= MaxGridDims
	units := make(map[string]float64, len(cols))
	if gridable {
		for _, c := range cols {
			d, ok := domains[c]
			if !ok || !(d.Lo <= d.Hi) || d.Unit <= 0 {
				gridable = false
				break
			}
			units[c] = d.Unit
		}
	}
	if gridable {
		// Verify boxability before touching (or creating) any grid so that
		// NE/IN groups never leave an empty histogram behind.
		if _, ok := boxForPreds(cols, preds, units); !ok {
			gridable = false
		}
	}
	if gridable {
		name := qgm.ColumnGroup(table, cols)
		g, ok := a.grids[table][name]
		if !ok {
			lo := make([]float64, len(cols))
			hi := make([]float64, len(cols))
			for d, c := range cols {
				dom := domains[c]
				lo[d] = dom.Lo
				hi[d] = dom.Hi + dom.Unit
			}
			hist, err := histogram.NewGrid(cols, lo, hi, ts)
			if err == nil {
				g = &gridEntry{hist: hist, cols: cols, units: units}
				a.putGridLocked(name, g)
			}
		}
		if g != nil {
			if box, ok := boxForPreds(g.cols, preds, g.units); ok {
				if err := g.hist.AddConstraint(box, clamp01(sel), ts); err == nil {
					fit := g.hist.LastFit()
					a.tally.fits.Add(int64(fit.Fits))
					a.tally.rounds.Add(int64(fit.Rounds))
					a.tally.unconverged.Add(int64(fit.Unconverged))
					a.enforceBudgetLocked(name)
					return g.hist.Buckets()
				}
			}
		}
	}

	// Memo fallback.
	a.memo[qgm.PredicateGroupKey(table, preds)] = &memoEntry{sel: clamp01(sel), ts: ts, lastUsed: ts}
	a.pruneMemoLocked()
	return 1
}

func clamp01(x float64) float64 { return min(max(x, 0), 1) }

// enforceBudgetLocked evicts histograms until the bucket budget holds:
// nearly-uniform histograms go first (least informative), then strict LRU.
// The histogram named by protect is evicted only as a last resort.
func (a *Archive) enforceBudgetLocked(protect qgm.StatName) {
	for a.bucketsLocked() > a.budget { // over a positive budget, so a grid exists
		victim := a.pickVictimLocked(protect)
		if victim.IsZero() {
			victim = protect // last resort: the budget is smaller than one histogram
		}
		delete(a.grids[victim.Table()], victim)
		if victim == protect {
			return
		}
	}
}

// pickVictimLocked returns the first grid other than protect in eviction
// order — uniform ones first, then least recently used, then by name — or the
// zero name when protect is all there is.
func (a *Archive) pickVictimLocked(protect qgm.StatName) (victim qgm.StatName) {
	var uniform bool
	var used int64
	for _, grids := range a.grids {
		for name, g := range grids {
			if name == protect {
				continue
			}
			u, at := g.hist.Uniformity() >= uniformEvictionThreshold, g.hist.LastUsed()
			if victim.IsZero() || (u && !uniform) || (u == uniform && (at < used || (at == used && name.Compare(victim) < 0))) {
				victim, uniform, used = name, u, at
			}
		}
	}
	return victim
}

// pruneMemoLocked applies the LRU cap to the memo.
func (a *Archive) pruneMemoLocked() {
	for len(a.memo) > a.memoCapacity {
		var victim string
		var oldest int64 = math.MaxInt64
		for k, m := range a.memo {
			if m.lastUsed < oldest || (m.lastUsed == oldest && k < victim) {
				victim, oldest = k, m.lastUsed
			}
		}
		delete(a.memo, victim)
	}
}

// OldestTimestampFor returns the minimum bucket timestamp of the archived
// statistic covering the group's region, or 0 when nothing covers it — the
// recentness signal available to the sensitivity analysis.
func (a *Archive) OldestTimestampFor(table string, preds []qgm.Predicate) int64 {
	if len(preds) == 0 {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if m, ok := a.memo[qgm.PredicateGroupKey(table, preds)]; ok {
		return m.ts
	}
	cols := qgm.GroupColumns(preds)
	g, ok := a.grids[table][qgm.ColumnGroup(table, cols)]
	if !ok {
		return 0
	}
	box, ok := boxForPreds(g.cols, preds, g.units)
	if !ok {
		return 0
	}
	return g.hist.OldestTimestampIn(box)
}

// AccuracyFor evaluates the paper's histogram-accuracy metric of the
// archived statistic with the given column-group name against a predicate
// group, for the sensitivity analysis. ok=false when the archive holds no
// such grid. A grid that cannot answer the group (see canAnswer) scores 0:
// the sensitivity analysis must never assume accuracy the optimizer could
// not actually obtain.
func (a *Archive) AccuracyFor(stat qgm.StatName, preds []qgm.Predicate) (float64, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	g, ok := a.grids[stat.Table()][stat]
	if !ok {
		return 0, false
	}
	if !g.canAnswer(preds) {
		return 0, true
	}
	box, boxOK := boxForPreds(g.cols, preds, g.units)
	if !boxOK {
		return 0, false
	}
	acc, err := g.hist.Accuracy(box)
	if err != nil {
		return 0, false
	}
	return acc, true
}

// StatSnapshot describes one archived grid histogram for introspection
// (SHOW STATS, /debug/archive).
type StatSnapshot struct {
	Key       string   `json:"key"`   // column-group name, e.g. "car(make,model)"
	Table     string   `json:"table"` // owning table
	Columns   []string `json:"columns"`
	Dims      int      `json:"dims"`
	Buckets   int      `json:"buckets"`
	Merges    int      `json:"merges"`     // maximum-entropy constraints merged in
	LastUsed  int64    `json:"last_used"`  // logical time the optimizer last consulted it
	UpdatedAt int64    `json:"updated_at"` // logical time of the last merge (0 = never since load)
}

// Snapshot returns one StatSnapshot per grid histogram, sorted by key. The
// exact-match memo is summarized by MemoEntries, not listed here.
func (a *Archive) Snapshot() []StatSnapshot {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := []StatSnapshot{}
	for table, grids := range a.grids {
		for name, g := range grids {
			out = append(out, StatSnapshot{
				Key:       name.String(),
				Table:     table,
				Columns:   append([]string(nil), g.cols...),
				Dims:      g.hist.Dims(),
				Buckets:   g.hist.Buckets(),
				Merges:    g.hist.Merges(),
				LastUsed:  g.hist.LastUsed(),
				UpdatedAt: g.hist.UpdatedAt(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MigrateToCatalog implements the statistics-migration module: the archive's
// one-dimensional histograms periodically refresh the system catalog's
// distribution statistics, and archived cardinalities refresh table
// cardinalities. Multi-dimensional histograms stay in the archive (the
// catalog's schema, like DB2's, holds per-column distributions). Returns
// the number of histograms migrated.
func (a *Archive) MigrateToCatalog(cat *catalog.Catalog, ts int64) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	migrated := 0
	for table, grids := range a.grids {
		for _, g := range grids {
			if len(g.cols) != 1 {
				continue
			}
			col := g.cols[0]
			stats, ok := cat.TableStats(table)
			if !ok {
				stats = &catalog.TableStats{Table: table, Columns: map[string]*catalog.ColumnStats{}, CollectedAt: ts}
				if card, okc := a.cards[table]; okc {
					stats.Cardinality = card.card
				}
				cat.SetTableStats(stats)
			}
			cs, ok := stats.Columns[col]
			if !ok {
				cs = &catalog.ColumnStats{Column: col}
				stats.Columns[col] = cs
			}
			cs.Hist = g.hist.Clone()
			migrated++
		}
	}
	for table, card := range a.cards {
		if stats, ok := cat.TableStats(table); ok {
			stats.Cardinality = card.card
		}
	}
	return migrated
}
