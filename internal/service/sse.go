package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"prisim/prisimclient"
)

// heartbeatEvery keeps idle SSE connections alive through proxies.
const heartbeatEvery = 15 * time.Second

// handleEvents streams a job's lifecycle as Server-Sent Events read from
// the job itself: the current snapshot first, as a "state" event, then
// each changed snapshot — a "state" event when the state moved, otherwise
// a "progress" event — until the terminal state, after which the stream
// closes. A slow stream skips intermediate progress, never the terminal
// state: every send reads the job's latest snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	var last prisimclient.Event // the last snapshot sent, untyped
	for first := true; ; first = false {
		snap, changed := j.watch()
		if first || snap != last {
			ev := snap
			ev.Type = "progress"
			if first || snap.State != last.State {
				ev.Type = "state"
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			fl.Flush()
			last = snap
		}
		if snap.State.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
