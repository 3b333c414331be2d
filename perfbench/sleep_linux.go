package main

import (
	"syscall"
	"time"
)

// spinMargin is how long before its due time sleepUntil stops sleeping
// and spins. A thread woken from nanosleep(2) on an idle vCPU takes a
// varying time to run again, and that wait went into every request's
// latency. At serve_hot's rate a worker's arrivals are 250 µs apart, so
// its workers never sleep and the vCPUs never idle: with a 120 µs margin
// the median still moved by 7-12 % between runs, with 300 µs by 4 %.
const spinMargin = 300 * time.Microsecond

// sleepUntil blocks until t. Go's timers wake through the network
// poller, whose timeout has millisecond resolution, so a sub-millisecond
// schedule driven by time.Sleep runs about half a millisecond late at the
// median. nanosleep(2) sleeps to within spinMargin of t, and a spin on
// the clock covers the rest; the goroutine's thread blocks in the
// syscall, and the runtime hands its processor to other goroutines
// meanwhile.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}
