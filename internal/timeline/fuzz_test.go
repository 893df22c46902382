package timeline

import (
	"math"
	"sort"
	"testing"
)

// FuzzSegmentSetInsert feeds arbitrary interval streams into SegmentSet
// and checks its invariants against a bitmap oracle.
func FuzzSegmentSetInsert(f *testing.F) {
	f.Add([]byte{1, 3, 5, 2, 10, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{200, 50, 10, 10, 10, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			s       SegmentSet
			covered [600]bool
		)
		for i := 0; i+1 < len(data); i += 2 {
			start := int(data[i]) + 1
			end := start + int(data[i+1])%32
			if end >= len(covered) {
				end = len(covered) - 1
			}
			if start > end {
				continue
			}
			s.Insert(Interval{Start: start, End: end})
			for x := start; x <= end; x++ {
				covered[x] = true
			}
		}
		// Invariant 1: segments sorted, disjoint, non-adjacent.
		segs := s.Segments()
		for k := 1; k < len(segs); k++ {
			if segs[k].Start <= segs[k-1].End+1 {
				t.Fatalf("segments not normalised: %v then %v", segs[k-1], segs[k])
			}
		}
		// Invariant 2: coverage matches the oracle.
		total := 0
		for x := 1; x < len(covered); x++ {
			if covered[x] {
				total++
			}
			if s.Covers(x) != covered[x] {
				t.Fatalf("Covers(%d) = %v, oracle %v", x, s.Covers(x), covered[x])
			}
		}
		if s.Total() != total {
			t.Fatalf("Total = %d, oracle %d", s.Total(), total)
		}
		// Invariant 3: gaps are exactly the uncovered stretches inside the
		// span.
		if first, last, ok := s.Bounds(); ok {
			gapLen := 0
			for _, g := range s.Gaps() {
				gapLen += g.Len()
				for x := g.Start; x <= g.End; x++ {
					if covered[x] {
						t.Fatalf("gap %v overlaps covered time %d", g, x)
					}
				}
			}
			if s.Total()+gapLen != last-first+1 {
				t.Fatalf("total %d + gaps %d != span %d", s.Total(), gapLen, last-first+1)
			}
		}
	})
}

// FuzzTreeProfile cross-checks the segment tree against the slice
// implementation on arbitrary operation streams.
func FuzzTreeProfile(f *testing.F) {
	f.Add([]byte{10, 1, 5, 3, 2, 8, 100})
	f.Add([]byte{255, 0, 255, 255, 1, 1, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		horizon := int(data[0])%200 + 1
		tree := NewTreeProfile(horizon)
		slice := NewSliceProfile(horizon)
		for i := 1; i+2 < len(data); i += 3 {
			a := int(data[i])%horizon + 1
			b := int(data[i+1])%horizon + 1
			if a > b {
				a, b = b, a
			}
			amt := float64(int(data[i+2]) - 128)
			tree.Add(a, b, amt)
			slice.Add(a, b, amt)
			if got, want := tree.Max(a, b), slice.Max(a, b); got != want {
				t.Fatalf("Max(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
		for x := 1; x <= horizon; x++ {
			if got, want := tree.At(x), slice.At(x); got != want {
				t.Fatalf("At(%d) = %g, want %g", x, got, want)
			}
		}
	})
}

// oracleLedger is the reference compile of a reservation set: collect
// every mark from the map, sort them in (t, end, id) order and
// accumulate from zero — the ledger's full rebuild before mutations
// became incremental. rest holds the running totals after the last
// mark, which the incremental ledger keeps to seed its next pass.
type oracleLedger struct {
	times            []int
	cpu, mem         []float64
	restCPU, restMem float64
	sum              Summary
}

func compileOracle(entries map[int]Reservation) oracleLedger {
	o := oracleLedger{sum: Summary{End: -1}}
	if len(entries) == 0 {
		return o
	}
	var marks []mark
	for id, r := range entries {
		marks = append(marks,
			mark{t: r.Interval.Start, id: id, cpu: r.CPU, mem: r.Mem},
			mark{t: r.Interval.End + 1, id: id, end: true, cpu: -r.CPU, mem: -r.Mem},
		)
	}
	sort.Slice(marks, func(a, b int) bool {
		if marks[a].t != marks[b].t {
			return marks[a].t < marks[b].t
		}
		if marks[a].end != marks[b].end {
			return !marks[a].end // starts before ends at the same minute
		}
		return marks[a].id < marks[b].id
	})
	var curCPU, curMem float64
	for i := 0; i < len(marks); {
		t := marks[i].t
		for i < len(marks) && marks[i].t == t {
			curCPU += marks[i].cpu
			curMem += marks[i].mem
			i++
		}
		o.times = append(o.times, t)
		if i < len(marks) {
			o.cpu = append(o.cpu, curCPU)
			o.mem = append(o.mem, curMem)
		}
	}
	o.restCPU, o.restMem = curCPU, curMem
	first := true
	for s := range o.cpu {
		if first || o.cpu[s] > o.sum.PeakCPU {
			o.sum.PeakCPU = o.cpu[s]
		}
		if first || o.mem[s] > o.sum.PeakMem {
			o.sum.PeakMem = o.mem[s]
		}
		if first || o.cpu[s] < o.sum.MinCPU {
			o.sum.MinCPU = o.cpu[s]
		}
		if first || o.mem[s] < o.sum.MinMem {
			o.sum.MinMem = o.mem[s]
		}
		first = false
	}
	o.sum.Start = o.times[0]
	o.sum.End = o.times[len(o.times)-1] - 1
	return o
}

// maxUsage is the ledger's window query as it stood before mutations
// became incremental, run on the oracle's step function.
func (o oracleLedger) maxUsage(start, end int) (cpu, mem float64) {
	m := len(o.cpu)
	if m == 0 || end < o.times[0] || start >= o.times[m] {
		return 0, 0
	}
	if start <= o.times[0] && end >= o.times[m]-1 {
		return o.sum.PeakCPU, o.sum.PeakMem
	}
	s := sort.SearchInts(o.times, start+1) - 1
	if s < 0 {
		s = 0
	}
	for ; s < m && o.times[s] <= end; s++ {
		if o.cpu[s] > cpu {
			cpu = o.cpu[s]
		}
		if o.mem[s] > mem {
			mem = o.mem[s]
		}
	}
	return cpu, mem
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSummary(a, b Summary) bool {
	return sameBits(a.PeakCPU, b.PeakCPU) && sameBits(a.PeakMem, b.PeakMem) &&
		sameBits(a.MinCPU, b.MinCPU) && sameBits(a.MinMem, b.MinMem) &&
		a.Start == b.Start && a.End == b.End
}

// checkAgainstOracle requires the ledger's compiled step function,
// summary and a grid of window answers to equal the oracle's bit for
// bit.
func checkAgainstOracle(t *testing.T, step int, l *Ledger, live map[int]Reservation) {
	t.Helper()
	o := compileOracle(live)
	if l.Len() != len(live) {
		t.Fatalf("op %d: Len %d, want %d", step, l.Len(), len(live))
	}
	if len(l.times) != len(o.times) || len(l.cpu) != len(o.times) || len(l.mem) != len(o.times) {
		t.Fatalf("op %d: %d times, %d/%d totals; oracle %d times", step, len(l.times), len(l.cpu), len(l.mem), len(o.times))
	}
	for s := range o.times {
		wantCPU, wantMem := o.restCPU, o.restMem
		if s < len(o.cpu) {
			wantCPU, wantMem = o.cpu[s], o.mem[s]
		}
		if l.times[s] != o.times[s] || !sameBits(l.cpu[s], wantCPU) || !sameBits(l.mem[s], wantMem) {
			t.Fatalf("op %d: segment %d = (%d, %v, %v), oracle (%d, %v, %v)",
				step, s, l.times[s], l.cpu[s], l.mem[s], o.times[s], wantCPU, wantMem)
		}
	}
	if !sameSummary(l.Summary(), o.sum) {
		t.Fatalf("op %d: Summary %+v, oracle %+v", step, l.Summary(), o.sum)
	}
	for _, qs := range []int{-1, 0, 1, 2, 7, 13, 24, 31, 47, 50, 64} {
		for _, n := range []int{0, 1, 3, 9, 27, 80} {
			gotCPU, gotMem := l.MaxUsage(qs, qs+n)
			wantCPU, wantMem := o.maxUsage(qs, qs+n)
			if !sameBits(gotCPU, wantCPU) || !sameBits(gotMem, wantMem) {
				t.Fatalf("op %d: MaxUsage(%d,%d) = (%v,%v), oracle (%v,%v)",
					step, qs, qs+n, gotCPU, gotMem, wantCPU, wantMem)
			}
		}
	}
}

// fuzzDemands mixes the non-dyadic Table I memory sizes with small
// values whose float sums depend on accumulation order.
var fuzzDemands = [...]float64{1.7, 17.1, 0.1, 34.2, 68.4, 0.25, 3, 0.3}

// FuzzLedger drives the incremental ledger with an arbitrary operation
// stream and requires it to agree, bit for bit, with a from-scratch
// compile after every operation. Each operation takes four bytes: the
// op and a demand, an id choice, and two interval parameters. Ids come
// from a small range and intervals from a short span, so replacements
// and same-minute start/end ties are frequent.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 0, 4, 6, 6, 1, 9, 3})                                     // [5,9], then a start at 10 tied with its end mark
	f.Add([]byte{0, 0, 4, 6, 6, 1, 9, 3, 7, 0, 0, 9, 2, 1, 0, 0})             // add, tie, replace, remove
	f.Add([]byte{0, 0, 2, 12, 4, 0, 2, 1, 4, 0, 1, 4, 4, 0, 0, 0})            // truncate past the end, inside, before the start
	f.Add([]byte{3, 7, 0, 0, 5, 3, 0, 0, 0, 2, 3, 1, 6, 3, 3, 6, 2, 0, 0, 0}) // missing ids, an empty interval
	f.Add([]byte{0, 0, 3, 1})                                                 // only an empty interval: one boundary, no segments
	f.Add([]byte{0, 0, 3, 0, 0, 1, 1, 9})                                     // an interval that ends before it starts
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger()
		live := map[int]Reservation{}
		interval := func(a, b byte) Interval {
			start := 1 + int(a%48)
			return Interval{Start: start, End: start + int(b%16) - 2}
		}
		pick := func(b byte) (int, bool) {
			if len(live) == 0 {
				return 0, false
			}
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			return ids[int(b)%len(ids)], true
		}
		for i := 0; i+3 < len(data); i += 4 {
			b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
			r := Reservation{
				Interval: interval(b2, b3),
				CPU:      fuzzDemands[int(b0/6)%len(fuzzDemands)],
				Mem:      fuzzDemands[int(b1/24)%len(fuzzDemands)],
			}
			switch b0 % 6 {
			case 0: // add; the small id range makes some of these replacements
				id := 1 + int(b1%24)
				l.Add(id, r)
				live[id] = r
			case 1: // replace a live id
				id, ok := pick(b1)
				if !ok {
					id = 1 + int(b1%24)
				}
				l.Add(id, r)
				live[id] = r
			case 2: // remove a live id
				id, ok := pick(b1)
				if !ok {
					continue
				}
				if got, ok := l.Remove(id); !ok || got != live[id] {
					t.Fatalf("op %d: Remove(%d) = (%+v, %v), want (%+v, true)", i/4, id, got, ok, live[id])
				}
				delete(live, id)
			case 3: // remove a missing id
				if _, ok := l.Remove(100 + int(b1)); ok {
					t.Fatalf("op %d: Remove of a missing id reported ok", i/4)
				}
			case 4: // truncate a live id before its start, inside it, or past its end
				id, ok := pick(b1)
				if !ok {
					continue
				}
				old := live[id]
				var newEnd int
				switch b2 % 3 {
				case 0:
					newEnd = old.Interval.Start - 1 - int(b3%3)
				case 1:
					newEnd = old.Interval.Start + int(b3)%max(1, old.Interval.End-old.Interval.Start)
				default:
					newEnd = old.Interval.End + int(b3%3)
				}
				if got, ok := l.Truncate(id, newEnd); !ok || got != old {
					t.Fatalf("op %d: Truncate(%d, %d) = (%+v, %v), want (%+v, true)", i/4, id, newEnd, got, ok, old)
				}
				switch {
				case newEnd < old.Interval.Start:
					delete(live, id)
				case newEnd < old.Interval.End:
					old.Interval.End = newEnd
					live[id] = old
				}
			default: // truncate a missing id
				if _, ok := l.Truncate(100+int(b1), int(b2)); ok {
					t.Fatalf("op %d: Truncate of a missing id reported ok", i/4)
				}
			}
			for id, want := range live {
				if got, ok := l.Get(id); !ok || got != want {
					t.Fatalf("op %d: Get(%d) = (%+v, %v), want (%+v, true)", i/4, id, got, ok, want)
				}
			}
			checkAgainstOracle(t, i/4, l, live)
		}
	})
}
