// AWS bug: a faithful reconstruction of the omitted-set bug the paper
// found in the AWS SDK for Java v2 (§1.4, Listing 3), plus its fix.
//
// The SDK's onComplete callback validates a checksum; on mismatch it calls
// onError and returns WITHOUT completing the download's future, so every
// consumer of the download hangs. The fix (a month later) added
// completeExceptionally to onError. Under the ownership policy the bug is
// caught the instant the callback task exits, with the future named.
//
// Run with: go run ./examples/awsbug [-fixed]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
)

// download models the SDK object holding the CompletableFuture.
type download struct {
	cf *core.Promise[[]byte]
}

// onComplete is Listing 3's callback: it either completes the future with
// the payload or — on checksum mismatch — routes to onError.
func (d *download) onComplete(t *core.Task, payload []byte, streamChecksum, computedChecksum uint32, fixed bool) error {
	if streamChecksum != computedChecksum {
		d.onError(t, fmt.Errorf("checksum mismatch: stream %08x != computed %08x", streamChecksum, computedChecksum), fixed)
		return nil // don't fulfill the promise again
	}
	return d.cf.Set(t, payload)
}

// onError was originally a no-op; the fix completes the future
// exceptionally.
func (d *download) onError(t *core.Task, err error, fixed bool) {
	if fixed {
		_ = d.cf.SetError(t, err)
	}
	// Originally: nothing.
}

func main() {
	fixed := flag.Bool("fixed", false, "apply the SDK's fix (completeExceptionally in onError)")
	flag.Parse()

	rt := core.NewRuntime(core.WithMode(core.Ownership))
	err := rt.Run(func(t *core.Task) error {
		d := &download{cf: core.NewPromiseNamed[[]byte](t, "downloadFuture")}

		// The SDK invokes the callback on its event thread; the callback
		// task takes responsibility for the future.
		if _, err := t.AsyncNamed("onComplete-callback", func(cb *core.Task) error {
			payload := []byte("file contents")
			return d.onComplete(cb, payload, 0xDEADBEEF, 0x600DF00D, *fixed)
		}, d.cf); err != nil {
			return err
		}

		// The application task consuming the download.
		_, err := d.cf.Get(t)
		switch {
		case err == nil:
			fmt.Println("download completed")
		case *fixed:
			fmt.Println("download failed cleanly (the fix):", err)
		default:
			var bp *core.BrokenPromiseError
			if errors.As(err, &bp) {
				fmt.Println("BUG CAUGHT: the consumer would have hung forever;")
				fmt.Printf("ownership verification unblocked it and blamed task %q for promise %q\n",
					bp.TaskName(), bp.PromiseLabel())
				return nil
			}
		}
		return err
	})
	if err != nil {
		if *fixed {
			// With the fix the failure is an ordinary, attributable error.
			fmt.Println("recorded (expected with -fixed):", err)
			return
		}
		var om *core.OmittedSetError
		if errors.As(err, &om) {
			fmt.Println("runtime report at callback exit:", om)
			return
		}
		log.Fatal(err)
	}
}
