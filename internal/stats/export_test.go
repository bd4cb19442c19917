package stats

// Reset zeroes all counters. The registry survives, so handles resolved
// before a Reset remain valid afterwards.
func (c *Counters) Reset() {
	for i := range c.vals {
		c.vals[i] = 0
		c.touched[i] = false
	}
}
