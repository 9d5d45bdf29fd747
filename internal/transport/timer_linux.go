package transport

import (
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/smartgrid/aria/internal/core"
)

// afterShort runs fn once delay has passed, on a timer the kernel keeps. A
// Go runtime with nothing to run blocks in epoll_wait, whose timeout counts
// whole milliseconds, so a time.AfterFunc of 150 µs fires up to a millisecond
// late on a quiet process — and a live grid is quiet between frames. A
// timerfd is a descriptor the same epoll_wait watches: it wakes the runtime
// when the delay ends, not at the next millisecond. ok is false when the
// kernel refuses the descriptor; the caller falls back to the runtime timer.
func afterShort(delay time.Duration, fn func()) (cancel core.Cancel, ok bool) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, false
	}
	// struct itimerspec: the interval (zero: one shot), then the first expiry.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(delay))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		_ = syscall.Close(int(fd))
		return nil, false
	}
	// Non-blocking, so os.NewFile hands it to the runtime's poller and the
	// Read below parks the goroutine, not a thread.
	f := os.NewFile(fd, "timerfd")
	var state atomic.Int32 // 0 pending, 1 fired, 2 cancelled
	go func() {
		var expirations [8]byte
		_, err := f.Read(expirations[:])
		_ = f.Close() // nothing was written; the descriptor is done either way
		if err == nil && state.CompareAndSwap(0, 1) {
			fn()
		}
	}()
	return func() bool { return state.CompareAndSwap(0, 2) }, true
}
