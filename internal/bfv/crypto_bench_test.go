package bfv

import "testing"

// cryptoFixture builds secure-randomness keys, an encryptor and a
// decryptor for a preset, plus one fresh ciphertext.
func cryptoFixture(b *testing.B, preset string) (*Encoder, *Encryptor, *Decryptor, *Ciphertext) {
	b.Helper()
	params, err := NewParametersFromPreset(preset)
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		b.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		b.Fatal(err)
	}
	encr := NewEncryptor(params, pk)
	pt, err := enc.EncodeNew(make([]uint64, enc.SlotCount()))
	if err != nil {
		b.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		b.Fatal(err)
	}
	return enc, encr, NewDecryptor(params, sk), ct
}

var cryptoPresets = []string{"PN4096", "PN8192"}

// decryptSink keeps the measured decryptions observable.
var decryptSink *Plaintext

// BenchmarkEncrypt measures public-key encryption with secure
// randomness (sampling dominates).
func BenchmarkEncrypt(b *testing.B) {
	for _, preset := range cryptoPresets {
		b.Run(preset, func(b *testing.B) {
			enc, encr, _, _ := cryptoFixture(b, preset)
			pt, err := enc.EncodeNew(make([]uint64, enc.SlotCount()))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := encr.Encrypt(pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecrypt measures RNS decryption against the big-integer
// reference it replaced.
func BenchmarkDecrypt(b *testing.B) {
	for _, preset := range cryptoPresets {
		b.Run(preset+"/rns", func(b *testing.B) {
			_, _, dec, ct := cryptoFixture(b, preset)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decryptSink = dec.Decrypt(ct)
			}
		})
		b.Run(preset+"/big", func(b *testing.B) {
			_, _, dec, ct := cryptoFixture(b, preset)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decryptSink = decryptBig(dec, ct)
			}
		})
	}
}

// BenchmarkKeyGen measures secure key generation: secret, public and
// relinearization keys plus four Galois keys.
func BenchmarkKeyGen(b *testing.B) {
	for _, preset := range cryptoPresets {
		b.Run(preset, func(b *testing.B) {
			params, err := NewParametersFromPreset(preset)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				kg := NewKeyGenerator(params)
				sk, err := kg.GenSecretKey()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := kg.GenPublicKey(sk); err != nil {
					b.Fatal(err)
				}
				if _, err := kg.GenRelinearizationKey(sk); err != nil {
					b.Fatal(err)
				}
				if _, err := kg.GenGaloisKeys(sk, []int{1, 2, 4, 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
