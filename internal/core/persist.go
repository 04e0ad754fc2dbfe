package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/histogram"
	"repro/internal/qgm"
)

// Serialized archive state. In the paper's prototype the QSS archive lives
// inside DB2's catalog tables and therefore persists across restarts; here
// Save/Load provide the same durability through JSON.
//
// Since envelope version 2 the snapshot is wrapped in a checksummed
// envelope: {"version":2,"crc32":<IEEE CRC-32 of payload>,"payload":<base64
// snapshot JSON>}. The checksum is computed over the exact payload bytes
// before writing, so any at-rest corruption (including the faults injected
// at the archive.save/archive.load points) is detected at load time instead
// of silently feeding garbage statistics to the optimizer. Version-1 files
// (the bare snapshot JSON) still load.

type gridSnapshot struct {
	Key   string             `json:"key"`
	Cols  []string           `json:"cols"`
	Units map[string]float64 `json:"units"`
	Hist  histogram.Snapshot `json:"hist"`
}

type memoSnapshot struct {
	Key      string  `json:"key"`
	Sel      float64 `json:"sel"`
	TS       int64   `json:"ts"`
	LastUsed int64   `json:"lastUsed"`
}

type cardSnapshot struct {
	Table string `json:"table"`
	Card  int64  `json:"card"`
	TS    int64  `json:"ts"`
}

type ndvSnapshot struct {
	Key string `json:"key"` // "table.column"
	NDV int64  `json:"ndv"`
	TS  int64  `json:"ts"`
}

type archiveSnapshot struct {
	Version int            `json:"version"`
	Budget  int            `json:"budget"`
	MemoCap int            `json:"memoCapacity"`
	Grids   []gridSnapshot `json:"grids"`
	Memo    []memoSnapshot `json:"memo"`
	Cards   []cardSnapshot `json:"cards"`
	NDVs    []ndvSnapshot  `json:"ndvs"`
}

const archiveSnapshotVersion = 1

// archiveEnvelope is the on-disk wrapper since version 2: the snapshot JSON
// as an opaque byte payload plus its CRC-32 (IEEE). Payload marshals as
// base64, which keeps injected byte-level corruption representable.
type archiveEnvelope struct {
	Version  int    `json:"version"`
	Checksum uint32 `json:"crc32"`
	Payload  []byte `json:"payload"`
}

const archiveEnvelopeVersion = 2

func (a *Archive) snapshot() archiveSnapshot {
	a.mu.RLock()
	defer a.mu.RUnlock()
	snap := archiveSnapshot{
		Version: archiveSnapshotVersion,
		Budget:  a.budget,
		MemoCap: a.memoCapacity,
	}
	for _, grids := range a.grids {
		for name, g := range grids {
			snap.Grids = append(snap.Grids, gridSnapshot{
				Key: name.String(), Cols: g.cols, Units: g.units, Hist: g.hist.Snapshot(),
			})
		}
	}
	for key, m := range a.memo {
		snap.Memo = append(snap.Memo, memoSnapshot{Key: key, Sel: m.sel, TS: m.ts, LastUsed: m.lastUsed})
	}
	for table, c := range a.cards {
		snap.Cards = append(snap.Cards, cardSnapshot{Table: table, Card: c.card, TS: c.ts})
	}
	for key, n := range a.ndvs {
		snap.NDVs = append(snap.NDVs, ndvSnapshot{Key: key, NDV: n.ndv, TS: n.ts})
	}
	// Sorted, so the same archive always saves to the same bytes.
	slices.SortFunc(snap.Grids, func(x, y gridSnapshot) int { return strings.Compare(x.Key, y.Key) })
	slices.SortFunc(snap.Memo, func(x, y memoSnapshot) int { return strings.Compare(x.Key, y.Key) })
	slices.SortFunc(snap.Cards, func(x, y cardSnapshot) int { return strings.Compare(x.Table, y.Table) })
	slices.SortFunc(snap.NDVs, func(x, y ndvSnapshot) int { return strings.Compare(x.Key, y.Key) })
	return snap
}

// Save serializes the archive to w as a checksummed JSON envelope. The
// checksum is taken before the archive.save fault point, so a corrupted
// persist is caught by the next LoadArchive rather than trusted.
func (a *Archive) Save(w io.Writer) error {
	payload, err := json.Marshal(a.snapshot())
	if err != nil {
		return fmt.Errorf("core: encoding archive: %w", err)
	}
	sum := crc32.ChecksumIEEE(payload)
	payload = faultinject.CorruptIf(faultinject.ArchiveSave, payload)
	enc := json.NewEncoder(w)
	return enc.Encode(archiveEnvelope{
		Version:  archiveEnvelopeVersion,
		Checksum: sum,
		Payload:  payload,
	})
}

// LoadArchive deserializes an archive previously written by Save, verifying
// the envelope checksum and validating every histogram. Version-1 files
// (bare snapshot, no checksum) are still accepted.
func LoadArchive(r io.Reader) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading archive: %w", err)
	}
	var env archiveEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decoding archive: %w", err)
	}
	var snap archiveSnapshot
	switch env.Version {
	case archiveEnvelopeVersion:
		payload := faultinject.CorruptIf(faultinject.ArchiveLoad, env.Payload)
		if sum := crc32.ChecksumIEEE(payload); sum != env.Checksum {
			return nil, fmt.Errorf("core: archive checksum mismatch (crc32 %08x, expected %08x): corrupted snapshot", sum, env.Checksum)
		}
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("core: decoding archive payload: %w", err)
		}
	case archiveSnapshotVersion:
		// Legacy bare-snapshot file: no checksum to verify.
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("core: decoding legacy archive: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: archive version %d not supported", env.Version)
	}
	if snap.Version != archiveSnapshotVersion {
		return nil, fmt.Errorf("core: archive snapshot version %d not supported", snap.Version)
	}
	a := NewArchive(snap.Budget, snap.MemoCap)
	for _, gs := range snap.Grids {
		h, err := histogram.FromSnapshot(gs.Hist)
		if err != nil {
			return nil, fmt.Errorf("core: grid %q: %w", gs.Key, err)
		}
		name, err := gridName(gs, h)
		if err != nil {
			return nil, fmt.Errorf("core: grid %q: %w", gs.Key, err)
		}
		units := gs.Units
		if units == nil {
			units = map[string]float64{}
		}
		a.putGridLocked(name, &gridEntry{hist: h, cols: gs.Cols, units: units})
	}
	// The optimizer takes the numbers below as they are: a selectivity
	// outside [0,1] or a negative count would become a negative estimate.
	for _, ms := range snap.Memo {
		if !(ms.Sel >= 0 && ms.Sel <= 1) {
			return nil, fmt.Errorf("core: memo %q selectivity %g out of [0,1]", ms.Key, ms.Sel)
		}
		a.memo[ms.Key] = &memoEntry{sel: ms.Sel, ts: ms.TS, lastUsed: ms.LastUsed}
	}
	for _, cs := range snap.Cards {
		if cs.Card < 0 {
			return nil, fmt.Errorf("core: table %q cardinality %d is negative", cs.Table, cs.Card)
		}
		a.cards[cs.Table] = cardEntry{card: cs.Card, ts: cs.TS}
	}
	for _, ns := range snap.NDVs {
		if ns.NDV < 0 {
			return nil, fmt.Errorf("core: column %q NDV %d is negative", ns.Key, ns.NDV)
		}
		a.ndvs[ns.Key] = ndvEntry{ndv: ns.NDV, ts: ns.TS}
	}
	return a, nil
}

// gridName checks a loaded grid against itself — its key names its (sorted)
// column list, its histogram has one dimension per column, its units name only
// those columns — and returns the name it files under. Lookups box predicates
// by position in Cols: a grid at odds with its histogram would index past it.
func gridName(gs gridSnapshot, h *histogram.Histogram) (qgm.StatName, error) {
	name, err := qgm.ParseStatName(gs.Key)
	if err != nil {
		return qgm.StatName{}, err
	}
	if name != qgm.ColumnGroup(name.Table(), gs.Cols) || !slices.IsSorted(gs.Cols) {
		return qgm.StatName{}, fmt.Errorf("key does not name columns %v", gs.Cols)
	}
	if len(gs.Cols) != h.Dims() {
		return qgm.StatName{}, fmt.Errorf("%d columns over a %d-dimensional histogram", len(gs.Cols), h.Dims())
	}
	for col := range gs.Units {
		if !slices.Contains(gs.Cols, col) {
			return qgm.StatName{}, fmt.Errorf("unit for column %q, which the grid does not have", col)
		}
	}
	return name, nil
}

// SaveArchive writes the coordinator's archive (engine-facing convenience).
func (j *JITS) SaveArchive(w io.Writer) error {
	return j.archive.Save(w)
}

// RestoreArchive replaces the coordinator's archive with a previously saved
// one — statistics materialized in an earlier session become reusable
// immediately.
func (j *JITS) RestoreArchive(a *Archive) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.archive = a
}
