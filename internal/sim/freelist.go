package sim

// freelist recycles the pooled records of one type. get pops the record put
// most recently, or returns nil when the list is empty; the caller then
// allocates a fresh record and binds its closures. Resetting a record before
// put stays with the caller, which knows the record's fields.
type freelist[T any] struct {
	free []*T
}

func (f *freelist[T]) get() *T {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	t := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return t
}

func (f *freelist[T]) put(t *T) { f.free = append(f.free, t) }
