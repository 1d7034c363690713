package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/prisimclient"
)

// FuzzProgramCheck posts arbitrary source to POST /api/v1/programs and
// checks the answer against the assembler and priscan run locally: 200
// carries the image hash and exactly priscan's warnings, 422 carries
// exactly the assembler's diagnostics (or priscan's, when the source
// assembles), and nothing else but a 400 for an empty or oversized source
// ever comes back. No simulation runs. Run longer with:
// go test ./internal/service -run '^$' -fuzz FuzzProgramCheck -fuzztime 30s
func FuzzProgramCheck(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "asm", "testdata", "*.s"))
	for _, file := range files {
		if src, err := os.ReadFile(file); err == nil {
			f.Add(string(src))
		}
	}
	f.Add("main:\n  li r1, 72\n  putc r1\n  li r1, 10\n  putc r1\n  halt\n")
	f.Add(oobProgram)
	f.Add(warnProgram)
	f.Add("main:\n\taddi r1, r99, 1\n  bogus r1\n  beq r1, r2, nowhere\n  halt\n")
	f.Add("main: halt\n\xff\n") // the excerpt goes on the wire as "\ufffd"

	srv := New(Config{Workers: 1})
	f.Cleanup(srv.Close)
	handler := srv.Handler()
	encode := func(t *testing.T, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// compact renders one field of the indented response as json.Marshal
	// would ("null" when the field is absent).
	compact := func(t *testing.T, field json.RawMessage) string {
		if field == nil {
			return "null"
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, field); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	f.Fuzz(func(t *testing.T, src string) {
		body, err := json.Marshal(prisimclient.ProgramCheckRequest{Source: []byte(src)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/programs", bytes.NewReader(body)))

		prog, asmErr := asm.AssembleFile("program.s", src)
		var lint []asm.Diagnostic
		if asmErr == nil {
			lint = analysis.Analyze(prog, analysis.Options{}).Diagnostics(prog, "program.s", src)
		}
		var resp struct {
			SHA256      string          `json:"sha256"`
			Warnings    json.RawMessage `json:"warnings"`
			Diagnostics json.RawMessage `json:"diagnostics"`
		}
		if rec.Code == http.StatusOK || rec.Code == http.StatusUnprocessableEntity {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%d body: %v\n%s", rec.Code, err, rec.Body)
			}
		}
		switch rec.Code {
		case http.StatusOK:
			if asmErr != nil {
				t.Fatalf("accepted a source the assembler rejects: %v", asmErr)
			}
			if resp.SHA256 != prog.SHA256() {
				t.Errorf("sha256 = %s, want %s", resp.SHA256, prog.SHA256())
			}
			if got, want := compact(t, resp.Warnings), encode(t, lint); got != want {
				t.Errorf("warnings:\ngot  %s\nwant %s", got, want)
			}
		case http.StatusUnprocessableEntity:
			want := lint
			if asmErr != nil {
				want = asm.Diagnostics(asmErr)
			} else if analysis.ExitCode(lint, false) != 2 {
				t.Errorf("rejected a source with no error finding: %s", rec.Body)
			}
			if got, want := compact(t, resp.Diagnostics), encode(t, want); got != want {
				t.Errorf("diagnostics:\ngot  %s\nwant %s", got, want)
			}
		case http.StatusBadRequest:
			if len(src) != 0 && len(src) <= DefaultMaxProgramSource {
				t.Errorf("400 for a %d-byte source: %s", len(src), rec.Body)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
