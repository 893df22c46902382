package timeline

import (
	"math"
	"sort"
)

// Reservation is one live resource claim in a Ledger: a CPU/memory amount
// held over a closed time interval.
type Reservation struct {
	Interval Interval
	CPU      float64
	Mem      float64
}

// Summary is a ledger's O(1) interval summary — the per-server building
// block of the fleet's feasibility index. All fields describe the
// compiled step function of total usage over time.
type Summary struct {
	// PeakCPU and PeakMem are the maximum total usage at any minute
	// (computed independently; they may peak at different minutes).
	PeakCPU float64
	// MinCPU and MinMem are the minimum total usage at any minute of the
	// busy span [Start, End]. Gaps between reservations count as zero
	// usage, so a ledger with a hole in its schedule reports a min of 0.
	PeakMem float64
	MinCPU  float64
	MinMem  float64
	// Start and End bound the busy span: the first and last minute any
	// reservation covers. An empty ledger has End < Start.
	Start int
	End   int
}

// mark is one step-function boundary: the usage delta taking effect at
// minute t. Marks sort by (t, end, id) — a fixed total order — so the
// float accumulation below is byte-reproducible regardless of the order
// reservations were added in.
type mark struct {
	t   int
	id  int
	end bool
	cpu float64
	mem float64
}

// before reports whether a sorts strictly before b in (t, end, id) order;
// at the same minute, starts sort before ends.
func (a mark) before(b mark) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.end != b.end {
		return !a.end
	}
	return a.id < b.id
}

// startMark and endMark are a reservation's two boundaries: its demand
// takes effect at Start and is withdrawn at End+1.
func startMark(id int, r Reservation) mark {
	return mark{t: r.Interval.Start, id: id, cpu: r.CPU, mem: r.Mem}
}

func endMark(id int, r Reservation) mark {
	return mark{t: r.Interval.End + 1, id: id, end: true, cpu: -r.CPU, mem: -r.Mem}
}

// firstMark is the earliest minute of a reservation's two marks: its
// start, unless a malformed interval ends before it begins.
func firstMark(r Reservation) int {
	return min(r.Interval.Start, r.Interval.End+1)
}

// Ledger tracks the live reservations of one server, keyed by VM ID, and
// answers window-maximum queries from a compiled step function of total
// usage that is kept current on every mutation.
//
// Unlike the horizon-bound Profile implementations, a Ledger has no
// planning horizon: intervals may start and end at any positive minute,
// which is what a long-running allocation service needs. The boundary
// marks of all reservations are kept sorted; a mutation binary-searches
// for its marks, inserts or deletes them in place, and re-accumulates
// the step function only from the first minute it touches, so it costs
// O(k) in the number of live reservations and allocates nothing once the
// ledger's slices have grown to size. MaxUsage is a zero-allocation
// binary search plus a walk of the overlapped segments, and Summary is
// O(1) — the fleet's feasibility index reads it to skip
// provably-infeasible servers without touching the segments at all.
//
// Concurrency: MaxUsage, Summary, Get and Len are pure reads and safe
// for concurrent use; Add, Remove and Truncate must not run concurrently
// with them. This is the same alternating scan/commit contract the
// parallel candidate-scan engine relies on elsewhere in the module.
//
// The zero value is not ready for use; call NewLedger.
type Ledger struct {
	entries map[int]Reservation

	// marks holds both boundaries of every live reservation, sorted in
	// (t, end, id) order.
	marks []mark

	// Compiled step function: times holds the distinct mark minutes and
	// cpu[s], mem[s] the running totals after every mark at times[s], so
	// segment s covers minutes [times[s], times[s+1]-1] with usage
	// (cpu[s], mem[s]). The last totals are what remains after every
	// mark — zero up to float rounding — and are kept only to seed the
	// next re-accumulation. Usage outside [times[0], times[m-1]-1] is
	// zero, where m = len(times).
	times []int
	cpu   []float64
	mem   []float64
	sum   Summary
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: make(map[int]Reservation), sum: Summary{End: -1}}
}

// Len returns the number of live reservations.
func (l *Ledger) Len() int { return len(l.entries) }

// Add records a reservation under the given ID, replacing any existing
// reservation with that ID.
func (l *Ledger) Add(id int, r Reservation) {
	from := firstMark(r)
	if old, ok := l.entries[id]; ok {
		l.deleteMark(startMark(id, old))
		l.deleteMark(endMark(id, old))
		from = min(from, firstMark(old))
	}
	l.entries[id] = r
	l.insertMark(startMark(id, r))
	l.insertMark(endMark(id, r))
	l.recompile(from)
}

// Get returns the reservation with the given ID.
func (l *Ledger) Get(id int) (Reservation, bool) {
	r, ok := l.entries[id]
	return r, ok
}

// Remove deletes the reservation with the given ID, returning it and
// whether it existed.
func (l *Ledger) Remove(id int) (Reservation, bool) {
	r, ok := l.entries[id]
	if ok {
		l.remove(id, r)
	}
	return r, ok
}

// Truncate shortens the reservation with the given ID to end at newEnd.
// If newEnd precedes the reservation's start the reservation is removed
// entirely. It returns the original reservation and whether it existed.
func (l *Ledger) Truncate(id, newEnd int) (Reservation, bool) {
	r, ok := l.entries[id]
	if !ok {
		return Reservation{}, false
	}
	if newEnd < r.Interval.Start {
		l.remove(id, r)
		return r, true
	}
	if newEnd < r.Interval.End {
		shrunk := r
		shrunk.Interval.End = newEnd
		l.entries[id] = shrunk
		l.deleteMark(endMark(id, r))
		l.insertMark(endMark(id, shrunk))
		l.recompile(newEnd + 1)
	}
	return r, true
}

func (l *Ledger) remove(id int, r Reservation) {
	delete(l.entries, id)
	l.deleteMark(startMark(id, r))
	l.deleteMark(endMark(id, r))
	l.recompile(firstMark(r))
}

// Summary returns the ledger's current interval summary. O(1).
func (l *Ledger) Summary() Summary { return l.sum }

// MaxUsage returns the maximum total CPU and memory reserved at any single
// minute of the closed window [start, end]. The two maxima are computed
// independently (they may occur at different minutes), matching the
// feasibility semantics of the per-resource Profile queries. It allocates
// nothing: the answer is read off the compiled step function.
func (l *Ledger) MaxUsage(start, end int) (cpu, mem float64) {
	m := len(l.times) - 1 // number of segments
	if m <= 0 || end < l.times[0] || start >= l.times[m] {
		return 0, 0
	}
	if start <= l.times[0] && end >= l.times[m]-1 {
		// The window covers the whole busy span: the answer is the peak.
		return l.sum.PeakCPU, l.sum.PeakMem
	}
	// First segment overlapping the window: the last s with times[s] ≤
	// start, clamped to 0 when the window starts before the span.
	s := sort.SearchInts(l.times, start+1) - 1
	if s < 0 {
		s = 0
	}
	for ; s < m && l.times[s] <= end; s++ {
		if l.cpu[s] > cpu {
			cpu = l.cpu[s]
		}
		if l.mem[s] > mem {
			mem = l.mem[s]
		}
	}
	return cpu, mem
}

// search returns the index of the first mark not before k.
func (l *Ledger) search(k mark) int {
	lo, hi := 0, len(l.marks)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l.marks[h].before(k) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

func (l *Ledger) insertMark(k mark) {
	i := l.search(k)
	l.marks = append(l.marks, mark{})
	copy(l.marks[i+1:], l.marks[i:])
	l.marks[i] = k
}

// deleteMark removes the mark with k's (t, end, id) key, which must be
// present.
func (l *Ledger) deleteMark(k mark) {
	i := l.search(k)
	copy(l.marks[i:], l.marks[i+1:])
	l.marks = l.marks[:len(l.marks)-1]
}

// recompile brings the step function and summary up to date after a
// mutation whose marks all lie at or after minute from. Marks before from
// are the same marks in the same order as before the mutation, so the
// segments before from — and the running totals after them — are
// unchanged; accumulation resumes from those stored totals and walks the
// remaining marks in (t, end, id) order. Every float sum therefore equals,
// bit for bit, a full accumulation over all marks, and so every MaxUsage
// answer and Summary bound is byte-reproducible for a given set of
// reservations, independent of insertion order.
func (l *Ledger) recompile(from int) {
	s := sort.SearchInts(l.times, from)
	var curCPU, curMem float64
	if s > 0 {
		curCPU, curMem = l.cpu[s-1], l.mem[s-1]
	}
	times, cpu, mem, marks := l.times[:s], l.cpu[:s], l.mem[:s], l.marks
	for i := l.search(mark{t: from, id: math.MinInt}); i < len(marks); {
		t := marks[i].t
		for ; i < len(marks) && marks[i].t == t; i++ {
			curCPU += marks[i].cpu
			curMem += marks[i].mem
		}
		times = append(times, t)
		cpu = append(cpu, curCPU)
		mem = append(mem, curMem)
	}
	l.times, l.cpu, l.mem = times, cpu, mem

	sum := Summary{End: -1}
	if m := len(times) - 1; m >= 0 { // m segments
		for s := range m {
			c, mm := cpu[s], mem[s]
			if s == 0 || c > sum.PeakCPU {
				sum.PeakCPU = c
			}
			if s == 0 || mm > sum.PeakMem {
				sum.PeakMem = mm
			}
			if s == 0 || c < sum.MinCPU {
				sum.MinCPU = c
			}
			if s == 0 || mm < sum.MinMem {
				sum.MinMem = mm
			}
		}
		sum.Start, sum.End = times[0], times[m]-1
	}
	l.sum = sum
}
