package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep with the thread's
// timer slack lowered to 1µs. The runtime's timers and poller wake a
// mostly idle process up to a millisecond late, which at the benchmark's
// rates spans several inter-arrival gaps. A blocking nanosleep holds the
// goroutine's processor until it returns, which is why the pacer runs in
// the generator process and not beside the system under test.
func preciseSleep(d time.Duration) {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
