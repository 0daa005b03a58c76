// Command bubblezerod serves the digital-twin HTTP API: create fleets
// from a JSON config, advance them in the background, inject live
// climate/door/fault events, read downsampled telemetry, and
// checkpoint/restore them as versioned gob snapshots.
//
//	bubblezerod -addr 127.0.0.1:8080
//
// See internal/twin.Server for the route table and DESIGN.md §10 for the
// API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"bubblezero/internal/twin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bubblezerod:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srv := twin.NewServer()
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("bubblezerod listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutCtx)
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
