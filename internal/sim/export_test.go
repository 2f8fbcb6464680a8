package sim

// CalendarCapacity reports how many events the slabs of k's calendar
// can hold: those of its buckets and slots and those waiting in the
// pool. The far heap is not counted.
func CalendarCapacity(k *Kernel) int {
	c := k.q.(*calendarQueue)
	n := 0
	for _, s := range c.buckets {
		n += cap(s)
	}
	for _, s := range c.slots {
		n += cap(s)
	}
	for _, class := range c.pool {
		for _, s := range class {
			n += cap(s)
		}
	}
	return n
}
