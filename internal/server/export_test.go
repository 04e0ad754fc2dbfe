package server

// SetMaxBlock lowers the result-block limit, so a test reaches the
// oversize-result path with a small result.
func (s *Server) SetMaxBlock(n int) { s.maxBlock = n }
