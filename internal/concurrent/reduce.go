package concurrent

// SumInt64 computes the sum of f(i) over [0, n) in parallel.
func SumInt64(n, p int, f func(i int) int64) int64 {
	p = Procs(p)
	partial := make([]int64, p)
	ForRange(n, p, 0, func(lo, hi, worker int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[worker] += s
	})
	var total int64
	for _, s := range partial {
		total += s
	}
	return total
}
