// Package loopback gives each in-process agent of an example its own
// loopback host.
//
// Agents that share 127.0.0.1 all bind port 0, and the kernel may hand a
// killed agent's port to a sibling, so a unit re-placed there can come
// back at the very host:port it had before; the coordinator then sees no
// new entry address and sends no entry event. With one host per agent a
// new placement always has a new address.
package loopback

import (
	"fmt"
	"net"
)

// Host returns the listen host for the i-th (0-based) agent: 127.0.0.2,
// 127.0.0.3, … (all of 127.0.0.0/8 is loopback on Linux). Where that
// address cannot be bound it falls back to 127.0.0.1.
func Host(i int) string {
	host := fmt.Sprintf("127.0.%d.%d", i/253, 2+i%253)
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return "127.0.0.1"
	}
	ln.Close()
	return host
}
