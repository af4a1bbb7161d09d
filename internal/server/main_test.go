package server

import (
	"os"
	"testing"

	"unijoin/internal/leakcheck"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
