"""The repository's end-to-end benchmark (see ``README.md`` beside this file).

Five workloads, each run in its own process, report the numbers a user
of the search system feels (latency, throughput, recall, bytes per base,
memory, set-up time) and, in a separate traced pass, what every layer of
the program contributes to them.  The benchmark only calls public
functions of ``repro``; nothing under ``src/`` knows it exists.
"""
