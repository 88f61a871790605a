package model

import (
	"testing"

	"jointadmin/internal/logic"
)

func BenchmarkGenerateRun(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateRun(int64(i), cfg)
	}
}

func BenchmarkCheckLegal(b *testing.B) {
	r, _ := generateRun(1, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckLegal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalKeySpeaksFor(b *testing.B) {
	r, sc := generateRun(1, DefaultConfig())
	f := logic.KeySpeaksFor{K: sc.SharedKey, T: logic.At(r.End - 1), Who: sc.SharedCP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(r, r.End, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckSoundness(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := CheckSoundness(int64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
