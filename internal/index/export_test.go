package index

// ImageStats is how an index's images came to be: Advances counts moves of
// the shared image to a newer snapshot (what Rebuilds reports), Full those of
// them that sorted everything, Aside the moves of the aside image to an older
// snapshot, LastMoved the entries the shared image's last catch-up removed
// plus added and LastRead the chunks it compared to find them. The rest
// count, over both images, the sorts that went past the first scatter of a
// build and past insertion sort: Scattered delta lists, InPlace partitions
// of a bucket, and StringTies runs of strings of one order key sorted on
// their next 8 bytes.
type ImageStats struct {
	Advances, Full, Aside, LastMoved, LastRead int
	Scattered, InPlace, StringTies             int
}

// Stats exposes the full-build versus catch-up split to tests.
func (ix *Index) Stats() ImageStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ImageStats{Advances: ix.rebuilds, Full: ix.fullBuilds, Aside: ix.asideBuilds, LastMoved: ix.lastMoved, LastRead: ix.lastRead,
		Scattered: ix.sorts.scattered, InPlace: ix.sorts.inPlace, StringTies: ix.sorts.stringTies}
}

// Len returns the number of entries in the image of the table as it is now,
// NULL keys included; it advances the shared image like any probe.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.imageAt(ix.table.Snapshot()).size()
}
