package core

// FreshGroups reports how many predicate-group selectivities this query's
// compilation collected.
func (qs *QueryStats) FreshGroups() int { return len(qs.fresh) }
