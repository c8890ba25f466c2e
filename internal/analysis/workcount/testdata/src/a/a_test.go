package a

// A test may read the counts.
func readInTest(s *Sink) int64 { return s.Read() }
