// Package suppresstest seeds one genuine puborder finding and silences it
// with a //lint:ignore directive, exercising the suppression path of the
// driver (the golden test asserts zero findings and exactly one suppression
// for this package).
package suppresstest

import "sync"

// drain receives under a mutex exactly like the registry's apply drain, but
// here the channel's contract makes the wait bounded, so the finding is
// suppressed with a written justification.
func drain(mu *sync.Mutex, done chan int) int {
	mu.Lock()
	defer mu.Unlock()
	//lint:ignore puborder done is buffered and its single sender never blocks on mu, so the receive is bounded
	return <-done
}

var _ = drain
