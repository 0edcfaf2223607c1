package comm

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestMain keeps the package hermetic: every receive loop, send-pool
// worker, and barrier timer a test starts must be gone when the suite
// ends, and every pooled payload lease must be back. Barrier code parks
// frames with their leases and spawns wakeup goroutines on failure, so a
// leak here is a protocol bug, not test noise. Teardown is asynchronous
// (receive loops exit once their mesh closes), hence the bounded settle.
// A fuzzing run is exempt: the fuzz engine keeps goroutines of its own.
func TestMain(m *testing.M) {
	flag.Parse()
	goroutines := runtime.NumGoroutine()
	leases := transport.OutstandingPayloadLeases()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines || transport.OutstandingPayloadLeases() > leases {
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "comm: tests leaked: %d goroutines (started with %d), %d payload leases (started with %d)\n",
					runtime.NumGoroutine(), goroutines, transport.OutstandingPayloadLeases(), leases)
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
				code = 1
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	os.Exit(code)
}
