package service

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"prisim/prisimclient"
)

// TestPanickedJobDoesNotStrandResubmission pins that a job whose simulation
// panics leaves nothing behind in the shared engine: facerec at this budget
// trips the timing model's watchdog, and the identical resubmission must
// fail the same way promptly instead of waiting out the job timeout on the
// first job's abandoned flight.
func TestPanickedJobDoesNotStrandResubmission(t *testing.T) {
	_, c := boot(t, Config{Workers: 1, JobTimeout: 5 * time.Minute})
	req := prisimclient.JobRequest{Kind: prisimclient.KindSimulate, Benchmark: "facerec", FastForward: 600_000, Run: 1000}
	for i := 0; i < 2; i++ {
		start := time.Now()
		j, err := c.Submit(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, c, j.ID, prisimclient.StateFailed)
		if final.State != prisimclient.StateFailed || !strings.Contains(final.Error, "internal error: panic:") {
			t.Fatalf("submission %d = %s (%q), want failed on the model's panic", i, final.State, final.Error)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("submission %d took %s to fail", i, took.Round(time.Millisecond))
		}
	}
}

// TestSettledProgramJobHoldsNoImage pins that a finished program job drops
// its assembled image while keeping the warnings that are on the wire.
func TestSettledProgramJobHoldsNoImage(t *testing.T) {
	srv, c := boot(t, Config{Workers: 1})
	submitted, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{Run: tinyRun})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, c, submitted.ID, prisimclient.StateDone); final.State != prisimclient.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	} else if !reflect.DeepEqual(final.Warnings, submitted.Warnings) {
		t.Errorf("warnings = %+v after settling, want the submit-time %+v", final.Warnings, submitted.Warnings)
	}
	if j, ok := srv.jobByID(submitted.ID); !ok || j.prog != nil {
		t.Error("settled program job is gone or still holds its assembled image")
	}
}
