package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set (1024 CPUs).
type cpuMask [16]uint64

func getAffinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	m, ok := getAffinity()
	if !ok {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// onCPU runs f with the calling goroutine's thread pinned to cpu, then
// restores the thread's affinity. If pinning fails, f runs unpinned.
func onCPU(cpu int, f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, ok := getAffinity()
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if ok && setAffinity(&m) {
		defer setAffinity(&old)
	}
	f()
}
