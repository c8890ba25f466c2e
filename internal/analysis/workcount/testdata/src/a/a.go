package a

type Counts struct{ cells int64 }

func (c *Counts) AddCells(n int) { c.cells += int64(n) }

type Sink struct{ cells int64 }

func (s *Sink) Flush(c *Counts) { s.cells += c.cells }

func (s *Sink) Read() int64 { return s.cells }

// Counting and flushing are what the answer path may do.
func ask(s *Sink) {
	var c Counts
	c.AddCells(3)
	s.Flush(&c)
}

func decide(s *Sink) bool {
	return s.Read() > 10 // want `work counts read outside a test`
}

func value(s *Sink) func() int64 {
	return s.Read // want `work counts read outside a test`
}
