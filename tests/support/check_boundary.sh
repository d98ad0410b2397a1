#!/bin/sh
# Keeps the test-support libraries out of what programs run.  Fails when a
# CMakeLists.txt under src/ or lpvsbench/CMakeLists.txt names a library
# built here or the tests/support directory, or when a file under src/
# includes a header from tests/support/include.
#
# Usage: sh tests/support/check_boundary.sh [repository root, default .]
set -eu
root=${1:-.}
support="$root/tests/support"
status=0

cmake_files=$(find "$root/src" -name CMakeLists.txt)
cmake_files="$cmake_files $root/lpvsbench/CMakeLists.txt"
libs=$(sed -n 's/^add_library(\([A-Za-z0-9_]*\).*/\1/p' \
  "$support/CMakeLists.txt")
for name in $libs tests/support; do
  # shellcheck disable=SC2086  # word splitting of the file list is wanted
  if grep -nF "$name" $cmake_files; then
    echo "boundary: '$name' is named in a src or lpvsbench CMakeLists.txt"
    status=1
  fi
done

headers=$(cd "$support/include" && find . -name '*.hpp' | sed 's|^\./||')
for header in $headers; do
  pattern="#[[:space:]]*include[[:space:]]*[\"<]$(printf '%s' "$header" |
    sed 's/\./\\./g')[\">]"
  if grep -rnE "$pattern" "$root/src"; then
    echo "boundary: src includes the support header $header"
    status=1
  fi
done

[ "$status" -eq 0 ] &&
  echo "boundary: src and lpvsbench use no tests/support code"
exit "$status"
