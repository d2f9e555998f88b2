//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime timer where nanosleep with a
// lowered timer slack is not available.
func preciseSleep(d time.Duration) { time.Sleep(d) }
