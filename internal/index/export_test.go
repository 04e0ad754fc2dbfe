package index

// ImageStats is how an index's images came to be: Advances counts moves of
// the shared image to a newer snapshot (what Rebuilds reports), Full those of
// them that sorted everything, Aside the moves of the aside image to an older
// snapshot, LastMoved the entries the shared image's last catch-up removed
// plus added and LastRead the chunks it compared to find them.
type ImageStats struct {
	Advances, Full, Aside, LastMoved, LastRead int
}

// Stats exposes the full-build versus catch-up split to tests.
func (ix *Index) Stats() ImageStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ImageStats{Advances: ix.rebuilds, Full: ix.fullBuilds, Aside: ix.asideBuilds, LastMoved: ix.lastMoved, LastRead: ix.lastRead}
}
