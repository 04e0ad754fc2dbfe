package core

import "repro/internal/qgm"

// name reads a statistic name from its text; names reads a statlist.
func name(text string) qgm.StatName {
	n, err := qgm.ParseStatName(text)
	if err != nil {
		panic(err)
	}
	return n
}

func names(texts ...string) []qgm.StatName {
	out := make([]qgm.StatName, len(texts))
	for i, text := range texts {
		out[i] = name(text)
	}
	return out
}
