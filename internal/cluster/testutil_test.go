package cluster

import (
	"net"
	"testing"
	"time"
)

// testDialWait bounds every test dial and wait: long enough for a
// loaded CI box, short enough that a wedged run fails instead of
// hanging the suite (chaos schedules can legitimately kill either end
// of a connection at any point).
const testDialWait = 5 * time.Second

// dialTimeout is the deadline-bounded dial all cluster tests use in
// place of bare net.Dial, so a coordinator that never accepts costs a
// bounded failure rather than a wedged worker goroutine.
func dialTimeout(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, testDialWait)
}

// row returns owned node u's neighbors, the rows encodeConfig takes.
func (c config) row(u int) []int32 {
	lo, _ := c.block().Range(c.HostID)
	return c.AdjFlat[c.AdjOff[u-lo]:c.AdjOff[u-lo+1]]
}

// waitErr receives from ch with a deadline, failing the test if nothing
// arrives in time. what names the awaited event in the failure message.
func waitErr(t *testing.T, ch <-chan error, timeout time.Duration, what string) error {
	t.Helper()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		t.Fatalf("timed out after %v waiting for %s", timeout, what)
		return nil
	}
}
