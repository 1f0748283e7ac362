package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host speed calibration.
//
// The hosts this benchmark runs on are shared, and other tenants change
// how fast every thread of the machine runs: by close to 2× for minutes at
// a time. CPU time grows with wall time then (one cold curve-sweep pass of
// one seed cost 4.5 CPU-seconds in one phase and 8.6 in the next), so
// neither can be compared between runs made minutes apart. Each run
// therefore also times a fixed kernel that calls no faultcast code, next
// to each of the workload's calls, and scales the call's CPU time by
// refKernelMs over the kernel's time there. The scaled costs read as CPU
// time on a host where the kernel takes refKernelMs.

// refKernelMs defines the reference host: one on which the kernel takes
// 2 ms of CPU time. (On 2 vCPUs of an Intel Xeon at 2.1 GHz it took
// 3.0–4.6 ms while the host was busy.)
const refKernelMs = 2.0

// kernelBuf is the kernel's 64 KiB working set: larger than L1, so the
// kernel feels cache contention as well as ALU contention.
var kernelBuf [1 << 14]uint32

var kernelSink int

// kernel is the calibration work: a xorshift stream scattering adds and
// popcounts over kernelBuf. It allocates nothing, so the collector never
// runs inside it.
func kernel() {
	const mask = len(kernelBuf) - 1
	x := uint64(88172645463325252)
	acc := 0
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x) & mask
		kernelBuf[j] += uint32(x >> 32)
		acc += bits.OnesCount32(kernelBuf[(j*7)&mask])
	}
	kernelSink += acc
}

// threadCPU is the calling thread's CPU time in seconds. The caller must
// be locked to its OS thread. The call's error is dropped: the clock is
// always there for the calling thread and ts is a valid address.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// speed collects a run's kernel timings (ms).
type speed struct{ ms []float64 }

// during runs fn while a goroutine locked to a thread of its own times
// the kernel every period, and returns the kernel's mean time (ms) over
// those samples and the CPU time (s) they took, which the caller takes
// out of the process CPU time it measured around fn. A long call thus
// gets the host's speed over its whole length, not just at its ends. The
// sampling takes about 4% of one core's time from the call.
func (s *speed) during(period time.Duration, fn func()) (kernelMs, samplingCPU float64) {
	stop, done := make(chan struct{}), make(chan struct{})
	var ms []float64
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			kernel()
			d := threadCPU() - t0
			ms = append(ms, d*1e3)
			samplingCPU += d
		}
	}()
	fn()
	close(stop)
	<-done
	if len(ms) == 0 { // fn was shorter than one period
		return s.at(), samplingCPU
	}
	s.ms = append(s.ms, ms...)
	return mean(ms), samplingCPU
}

// at times the kernel once, on a locked thread, and returns its time in
// ms: the host's speed at this moment.
func (s *speed) at() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	kernel()
	ms := (threadCPU() - t0) * 1e3
	s.ms = append(s.ms, ms)
	return ms
}

// costs collects a run's CPU costs of hot and cold calls (ms per call),
// raw and scaled to the reference host by the kernel time measured next
// to each call. A call's raw CPU cost times refKernelMs over that kernel
// time is its cost on the reference host.
type costs struct {
	hot, cold       []float64
	hotRef, coldRef []float64
	cpu, ref        float64 // summed CPU seconds, raw and scaled
	trials          float64 // trials the calls simulated
}

// add records a sample of n calls that cost perCallMs each, next to which
// the kernel took kernelMs.
func (c *costs) add(hot bool, perCallMs float64, n int, kernelMs float64) {
	ref := perCallMs * refKernelMs / kernelMs
	if hot {
		c.hot, c.hotRef = append(c.hot, perCallMs), append(c.hotRef, ref)
	} else {
		c.cold, c.coldRef = append(c.cold, perCallMs), append(c.coldRef, ref)
	}
	c.cpu += perCallMs * float64(n) / 1e3
	c.ref += ref * float64(n) / 1e3
}

// publish reports the median hot call, the mean cold call (cold calls are
// few, and on cluster-sweep each one's cost moves with the speculation an
// early stop throws away) and trials per CPU second, raw and scaled, and
// the run's mean kernel time.
func (c *costs) publish(r *run) {
	r.set("hot_cpu_ms", "ms", median(c.hot))
	r.set("cold_cpu_ms", "ms", mean(c.cold))
	r.set("trials_per_cpu_s", "trials/s", c.trials/c.cpu)
	r.set("hot_ref_ms", "ms", median(c.hotRef))
	r.set("cold_ref_ms", "ms", mean(c.coldRef))
	r.set("trials_per_ref_s", "trials/s", c.trials/c.ref)
	r.set("host.kernel_ms", "ms", mean(r.speed.ms))
}
