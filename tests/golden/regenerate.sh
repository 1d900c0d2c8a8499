#!/bin/sh
# Rewrite the cli_golden goldens from an adscope binary (intended output changes only): regenerate.sh path/to/adscope
exec sh "$(dirname "$0")/../cli_golden.sh" "$1" "$(dirname "$0")" --update
