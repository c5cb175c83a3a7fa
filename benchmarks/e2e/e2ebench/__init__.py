"""End-to-end benchmark of the PODS reproduction (see ../README.md).

Everything here measures ``src/repro`` from outside: no module of the
program under test is edited, and every span of the traced run is
recorded around a call into a layer's public functions.
"""
