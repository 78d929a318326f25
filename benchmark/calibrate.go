package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// kernel is a fixed calibration computation that shares no code with the
// layers under test: random updates to a pre-filled map and to a 4 MB
// table. Its speed moves with the host's load from outside the benchmark,
// which on a shared machine swings every host time by tens of percent over
// minutes; host times are reported relative to it. Each worker times its
// own kernel between operations.
type kernel struct {
	m map[uint64]uint64
	// tab lives outside the Go heap, in mem, so the kernel adds nothing to
	// the heap the collector paces itself on.
	tab []uint64
	mem []byte
	x   uint64
	// last is when the kernel last ran; recent holds its latest times.
	last   time.Time
	recent []float64
}

const (
	kernelKeys  = 1 << 14
	kernelTab   = 1 << 19 // 4 MB of uint64
	kernelSteps = 20000
	// kernelEvery is how often a worker re-times its kernel.
	kernelEvery = 20 * time.Millisecond
	// kernelRef is the nominal kernel time normalized host times refer to:
	// a normalized time is what the operation would take on a host where
	// the kernel takes kernelRef.
	kernelRef = 0.001
	// kernelWindow is how many recent kernel times a worker's speed is the
	// median of.
	kernelWindow = 3
)

func newKernel() (*kernel, error) {
	mem, err := syscall.Mmap(-1, 0, kernelTab*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &kernel{
		m:   make(map[uint64]uint64, kernelKeys),
		tab: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), kernelTab),
		mem: mem,
		x:   1,
	}
	for i := uint64(0); i < kernelKeys; i++ {
		k.m[i] = i
	}
	for i := range k.tab {
		k.tab[i] = uint64(i)
	}
	return k, nil
}

// close unmaps the table. A failed unmap only keeps 4 MB mapped until the
// process exits, so its error is dropped.
func (k *kernel) close() {
	_ = syscall.Munmap(k.mem)
}

// speed returns the median of the worker's recent kernel times in seconds,
// re-timing the kernel first when kernelEvery has passed since its last run.
func (k *kernel) speed() float64 {
	if len(k.recent) == 0 || time.Since(k.last) >= kernelEvery {
		k.recent = append(k.recent, k.run())
		if len(k.recent) > kernelWindow {
			k.recent = k.recent[1:]
		}
	}
	s := append([]float64(nil), k.recent...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func (k *kernel) run() float64 {
	start := time.Now()
	x := k.x
	for i := 0; i < kernelSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.m[(x>>30)&(kernelKeys-1)] += x
		k.tab[(x>>17)&(kernelTab-1)] ^= x
	}
	k.x = x
	k.last = time.Now()
	return k.last.Sub(start).Seconds()
}
