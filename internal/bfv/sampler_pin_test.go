package bfv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"porcupine/internal/ring"
)

// seededMaterialDigest hashes everything a seeded key generator and a
// seeded encryptor produce for preset: the secret, public,
// relinearization and Galois keys, then three ciphertexts.
func seededMaterialDigest(t *testing.T, preset string) string {
	t.Helper()
	params, err := NewParametersFromPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	putPoly := func(p *ring.Poly) {
		for _, row := range p.Coeffs {
			for _, c := range row {
				h.Write(binary.LittleEndian.AppendUint64(nil, c))
			}
		}
	}
	kg := NewTestKeyGenerator(params, 7)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	putPoly(sk.S)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	put(pk.MarshalBinary())
	rlk, err := kg.GenRelinearizationKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	put(rlk.MarshalBinary())
	gks, err := kg.GenGaloisKeys(sk, []int{1, -3})
	if err != nil {
		t.Fatal(err)
	}
	put(gks.MarshalBinary())
	encr := NewTestEncryptor(params, pk, 8)
	for i := 0; i < 3; i++ {
		v := make([]uint64, params.SlotCount())
		for j := range v {
			v[j] = uint64(i*1000+j) % params.T
		}
		pt, err := enc.EncodeNew(v)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := encr.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		put(ct.MarshalBinary())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeededMaterialPinned pins the bytes of seeded key material and
// ciphertexts. Seeded samplers must draw exactly the same randomness
// stream whatever their internal buffering, so every deterministic
// test fixture (and every digest derived from one) stays stable.
func TestSeededMaterialPinned(t *testing.T) {
	want := map[string]string{
		"PN2048": "9b9e6a7d2adb5c194bf75f51223c4f641f5be98ba066befe47f7bacf8c560611",
		"PN4096": "64a0bd98c76a602fbdc4fc1fd908d6c65b354d17966507b99c07acee8fc68827",
	}
	for preset, digest := range want {
		if got := seededMaterialDigest(t, preset); got != digest {
			t.Errorf("%s: seeded key/ciphertext digest %s, want %s", preset, got, digest)
		}
	}
}
