package main

import (
	"testing"

	"handsfree/internal/server"
)

// TestServeListenerTimesOut: the serve listener bounds how long a connection
// may take over its request headers and how long it may sit idle.
func TestServeListenerTimesOut(t *testing.T) {
	hs := newHTTPServer(server.New(server.Config{}, server.NewRegistry()))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}
