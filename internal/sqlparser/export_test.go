package sqlparser

// CountLexes counts, by text, every text lexed from now on — by Parse, by
// Normalize, and by LexSelect past a first token that is SELECT — until stop
// is called. Not for tests that lex on several goroutines at once.
func CountLexes() (counts map[string]int, stop func()) {
	counts = make(map[string]int)
	lexHook = func(input string) { counts[input]++ }
	return counts, func() { lexHook = nil }
}
