package river

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
)

// agentHosts counts the loopback hosts handed out by agentListenHost.
var agentHosts atomic.Uint32

// agentListenHost returns a loopback address for one in-process agent's
// hosted units that no other agent of this test binary listens on:
// 127.0.0.2, 127.0.0.3, … (all of 127.0.0.0/8 is loopback on Linux).
// Agents sharing one host all bind port 0, and the kernel may hand a
// killed agent's port to a sibling, so a unit re-placed there would come
// back at the very address it had before; with a host per agent a new
// placement always has a new address. Where the extra loopback addresses
// are not configured it falls back to 127.0.0.1.
func agentListenHost(t testing.TB) string {
	n := agentHosts.Add(1) - 1
	host := fmt.Sprintf("127.0.%d.%d", n/253, 2+n%253)
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		t.Logf("loopback host %s unavailable (%v); agent listens on 127.0.0.1", host, err)
		return "127.0.0.1"
	}
	ln.Close()
	return host
}
