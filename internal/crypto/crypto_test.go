package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	secret := []byte("deployment-secret")
	a := NewMAC(PartyID(0), secret)
	b := NewMAC(PartyID(1), secret)
	payload := []byte("the payload")
	tag := a.Tag(PartyID(1), payload)
	if !b.Verify(PartyID(0), payload, tag) {
		t.Fatal("valid MAC rejected")
	}
	if b.Verify(PartyID(0), []byte("tampered"), tag) {
		t.Fatal("tampered payload accepted")
	}
	if b.Verify(PartyID(2), payload, tag) {
		t.Fatal("wrong claimed sender accepted")
	}
}

func TestMACPairwiseKeysDiffer(t *testing.T) {
	secret := []byte("s")
	a := NewMAC(PartyID(0), secret)
	t01 := a.Tag(PartyID(1), []byte("m"))
	t02 := a.Tag(PartyID(2), []byte("m"))
	if bytes.Equal(t01, t02) {
		t.Fatal("same tag for different recipients: pairwise keys degenerate")
	}
}

func TestMACWrongSecretFails(t *testing.T) {
	a := NewMAC(PartyID(0), []byte("good"))
	b := NewMAC(PartyID(1), []byte("evil"))
	tag := a.Tag(PartyID(1), []byte("m"))
	if b.Verify(PartyID(0), []byte("m"), tag) {
		t.Fatal("MAC verified across different secrets")
	}
}

func TestDSRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ring := NewKeyRing()
	ring.Add(PartyID(3), pub)
	signer := NewDS(PartyID(3), priv, ring)
	verifier := NewDS(PartyID(1), nil, ring)

	payload := []byte("signed payload")
	sig := signer.Tag(0, payload)
	if !verifier.Verify(PartyID(3), payload, sig) {
		t.Fatal("valid signature rejected")
	}
	if verifier.Verify(PartyID(3), []byte("other"), sig) {
		t.Fatal("tampered payload accepted")
	}
	if verifier.Verify(PartyID(9), payload, sig) {
		t.Fatal("unknown signer accepted")
	}
}

func TestNoneAcceptsEverything(t *testing.T) {
	a := NewNone()
	if !a.Verify(0, []byte("x"), nil) {
		t.Fatal("None rejected a message")
	}
	if a.Tag(0, []byte("x")) != nil {
		t.Fatal("None produced a tag")
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range []Scheme{SchemeNone, SchemeMAC, SchemeDS, Scheme(9)} {
		if s.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
}

func TestClientPartyIDsDisjointFromReplicas(t *testing.T) {
	f := func(r uint16, c uint32) bool {
		return PartyID(0)|uint32(r) != ClientPartyID(1)|ClientPartyID(0) &&
			ClientPartyID(0) >= 1<<31 && uint32(r) < 1<<31
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
