package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRecords is the append body parser's robustness harness: it
// reads bytes from outside on both sides of the wire, so arbitrary
// bytes under either content type must never panic; and whatever
// records a JSON body parses to, the same batch sent as a JSON array
// and as NDJSON — the three forms the append endpoint takes — must
// parse to the same records. Run
//
//	go test -fuzz FuzzParseRecords ./client
//
// to explore further.
func FuzzParseRecords(f *testing.F) {
	f.Add([]byte(`{"id":1,"rect":{"xlo":1,"ylo":2,"xhi":3,"yhi":4}}`))
	f.Add([]byte(`[{"id":1,"rect":{"xlo":1,"ylo":2,"xhi":3,"yhi":4}},{"id":2,"rect":{"xlo":1e39,"xhi":1e39}}]`))
	f.Add([]byte("{\"id\":1,\"rect\":{\"xhi\":1,\"yhi\":1}}\n\n{\"id\":2}\n"))
	f.Add([]byte(`{"id":1,"rect":{"xlo":1e999}}`))
	f.Add([]byte(`{"id":-1}`))
	f.Add([]byte("null"))
	f.Add([]byte(" \n"))
	f.Add([]byte("[]"))
	f.Add([]byte(`{not json}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseRecords("application/x-ndjson", bytes.NewReader(data))
		recs, err := ParseRecords("application/json", bytes.NewReader(data))
		if err != nil {
			return
		}
		array, err := json.Marshal(recs)
		if err != nil {
			t.Fatalf("records parsed from %q do not marshal: %v", data, err)
		}
		var lines strings.Builder
		for _, r := range recs {
			line, _ := json.Marshal(r)
			lines.Write(line)
			lines.WriteByte('\n')
		}
		for form, body := range map[string]struct{ contentType, body string }{
			"array":  {"application/json", string(array)},
			"ndjson": {"application/x-ndjson", lines.String()},
		} {
			again, err := ParseRecords(body.contentType, strings.NewReader(body.body))
			if err != nil {
				t.Fatalf("the %s form %q of a parsed batch does not parse: %v", form, body.body, err)
			}
			if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
				t.Fatalf("the %s form parses to %v, the batch was %v", form, again, recs)
			}
		}
	})
}
