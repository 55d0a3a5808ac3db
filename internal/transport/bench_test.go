package transport

import (
	"testing"

	"repro/internal/crypto"
)

// BenchmarkFrameAuth prices authenticating one frame at both ends: the
// writer seals it and the reader checks it, through the transport's own
// sealFrame and checkFrame, for a 1 KB frame and a 12 KB one (the size of
// an average client frame on lan_sat). One op is one frame.
//
//	go test -run '^$' -bench BenchmarkFrameAuth -benchmem ./internal/transport
func BenchmarkFrameAuth(b *testing.B) {
	secret := []byte("bench-frame-secret")
	for _, scheme := range []struct {
		name string
		auth func(party uint32, secret []byte) crypto.Authenticator
	}{
		{"mac", crypto.NewMAC},
		{"ds", crypto.NewDSDev},
	} {
		for _, size := range []struct {
			name string
			n    int
		}{{"1KB", 1 << 10}, {"12KB", 12 << 10}} {
			b.Run(scheme.name+"/"+size.name, func(b *testing.B) {
				salt := newSalt()
				w, err := newLinkAuth(scheme.auth(crypto.PartyID(0), secret), crypto.PartyID(0), crypto.PartyID(1), false, salt)
				if err != nil {
					b.Fatal(err)
				}
				r, err := newLinkAuth(scheme.auth(crypto.PartyID(1), secret), crypto.PartyID(1), crypto.PartyID(0), true, salt)
				if err != nil {
					b.Fatal(err)
				}
				frame := make([]byte, 4+size.n, 4+size.n+maxTagLen+1)
				for i := range frame {
					frame[i] = byte(i)
				}
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sealed, err := w.sealFrame(frame[:4+size.n])
					if err != nil {
						b.Fatal(err)
					}
					records, tag, ok := openFrame(sealed[4:])
					if !r.checkFrame(records, tag, ok) {
						b.Fatal("sealed frame refused")
					}
				}
			})
		}
	}
}
