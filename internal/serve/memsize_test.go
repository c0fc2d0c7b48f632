package serve

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"valueprof/internal/asm"
)

// TestSubmitRejectsUnfitMemory pins that a job whose guest memory
// cannot hold its program is refused at submit with class "config",
// instead of being queued and panicking the runner when the VM is
// built. After the rejections the daemon still runs a valid job.
func TestSubmitRejectsUnfitMemory(t *testing.T) {
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog.DataAddr = 1 << 40
	image, err := saveImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	farData := loopRequest("mem", 3)
	farData.Program = WireProgram{Image: base64.StdEncoding.EncodeToString(image)}

	tiny := loopRequest("mem", 3)
	tiny.Config.MemSize = 100
	huge := loopRequest("mem", 3)
	huge.Config.MemSize = 1 << 62

	s, hs := newHTTPServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		name string
		req  *JobRequest
	}{
		{"tiny memSize", tiny},
		{"dataAddr past memory end", farData},
		{"memSize above cap", huge},
	} {
		code, body := call(t, http.MethodPost, hs.URL+"/v1/jobs", tc.req)
		var resp struct {
			Error WireError `json:"error"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: response %d: %v\n%s", tc.name, code, err, body)
		}
		if code != http.StatusUnprocessableEntity || resp.Error.Class != ClassConfig {
			t.Errorf("%s: got %d class %q, want %d class %q\n%s",
				tc.name, code, resp.Error.Class, http.StatusUnprocessableEntity, ClassConfig, body)
		}
		if !strings.Contains(resp.Error.Message, "memory") {
			t.Errorf("%s: message %q does not name the memory check", tc.name, resp.Error.Message)
		}
	}

	code, st := submitHTTP(t, hs.URL, loopRequest("mem", 3))
	if code != http.StatusAccepted {
		t.Fatalf("valid submit after rejections: %d", code)
	}
	if fin := waitTerminal(t, s, st.ID); fin.State != StateCompleted {
		t.Fatalf("valid job ended %s (%+v)", fin.State, fin.Error)
	}
}
