package main

// refLoop is a fixed reference computation shaped like the simulator's hot
// path: lookups in a 4-way set-associative tag array with LRU ages, and a
// map-based translation table on misses. It is timed before every round of
// batches. The host's speed changes by up to a third between runs taken
// minutes apart (turbo budget and neighbours' load on a shared machine);
// the simulator and this loop slow down together, so host-time metrics are
// scaled by how fast the loop ran.
type refLoop struct {
	tags  [64][4]uint64
	age   [64][4]uint8
	table map[uint64]uint64
	x     uint64
	sink  uint64
}

const (
	refLoopIters = 8192
	// refLoopNs is refLoop's 10th-percentile time on the reference host.
	// Host-time metrics are reported as if the loop had taken this long.
	refLoopNs = 265_000
)

func newRefLoop() *refLoop {
	l := &refLoop{table: make(map[uint64]uint64, 2048), x: 1}
	for i := uint64(0); i < 2048; i++ {
		l.table[i] = i * 7
	}
	return l
}

func (l *refLoop) run() {
	x := l.x
	for i := 0; i < refLoopIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		page := (x >> 40) % 2048
		set, age := &l.tags[page&63], &l.age[page&63]
		way := -1
		for w := range set {
			if set[w] == page+1 {
				way = w
				break
			}
		}
		if way < 0 {
			way = 0
			for w := 1; w < len(age); w++ {
				if age[w] > age[way] {
					way = w
				}
			}
			set[way] = page + 1
			l.sink += l.table[page]
		}
		for w := range age {
			if age[w] < 255 {
				age[w]++
			}
		}
		age[way] = 0
	}
	l.x = x
}
