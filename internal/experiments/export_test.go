package experiments

// QuickOptions is a smaller configuration for tests and smoke runs — long
// enough for the JITS archive to amortize its collection overhead (the
// paper's Figure 4 shows early queries paying, later queries winning).
func QuickOptions() Options {
	return Options{Scale: 0.004, Queries: 200, Seed: 42, SMax: 0.5, SampleSize: 800}
}
