from common import use_source_tree

# the benchmark's tests import retroflow from this checkout's src tree
use_source_tree()
