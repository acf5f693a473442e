//go:build !linux

package main

// allowedCPUs reports no CPU list where affinity is not supported.
func allowedCPUs() []int { return nil }

// onCPU runs f unpinned.
func onCPU(cpu int, f func()) { f() }
