package main

import "testing"

func TestDefaultStudy(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithCategoriesAndSize(t *testing.T) {
	if err := run([]string{"-n", "200", "-seed", "7", "-categories"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadSize(t *testing.T) {
	if err := run([]string{"-n", "0"}); err == nil {
		t.Fatal("zero corpus accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
