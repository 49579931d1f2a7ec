package resultstore

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzResultLine hardens the disk-tier line verifier behind every disk
// read: arbitrary bytes must give either a verified body or a miss, never a
// panic, and a verified line must be exactly the line encodeLine writes for
// that key and body — so no mangled line can pass for a sound one. Every
// encodable key and body must verify back.
func FuzzResultLine(f *testing.F) {
	good := encodeLine("k", []byte(`{"app":"fft","cycles":12345}`))
	good = good[:len(good)-1]
	for _, seed := range []string{
		string(good),
		string(good[:len(good)-4]), // truncated body
		strings.Replace(string(good), EnvelopeSchema, "ipex-result/v1", 1),
		strings.ToUpper(string(good)),
		EnvelopeSchema + " k",
		EnvelopeSchema + "  " + strings.Repeat("0", 64) + " body",   // empty key
		EnvelopeSchema + " k " + strings.Repeat("zz", 32) + " body", // non-hex checksum
		"", " ", "\xff\xfe",
	} {
		f.Add([]byte(seed), "k")
	}
	f.Fuzz(func(t *testing.T, line []byte, key string) {
		if body, ok := verifyLine(line, key); ok {
			if want := encodeLine(key, body); !bytes.Equal(line, want[:len(want)-1]) {
				t.Fatalf("verified line %q is not the encoding of key %q and body %q", line, key, body)
			}
		}
		if key == "" || strings.ContainsAny(key, " \n") {
			return
		}
		enc := encodeLine(key, line)
		if body, ok := verifyLine(enc[:len(enc)-1], key); !ok || !bytes.Equal(body, line) {
			t.Fatalf("encoded body %q for key %q verified as %q, %v", line, key, body, ok)
		}
	})
}
