#!/usr/bin/env python3
"""Fails if any YAML file given on the command line repeats a mapping key.

YAML leaves duplicate keys undefined and most parsers keep the last one
without a word, so a dropped line can silently merge one block into
another. Usage: check_yaml_keys.py FILE...
"""

import sys

import yaml


class StrictLoader(yaml.SafeLoader):
    """A safe loader that rejects a mapping key seen twice."""


def construct_mapping(loader, node, deep=False):
    seen = {}
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping",
                node.start_mark,
                f"duplicate key {key!r} (first at line {seen[key] + 1})",
                key_node.start_mark,
            )
        seen[key] = key_node.start_mark.line
    return loader.construct_mapping(node, deep=deep)


StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, construct_mapping
)


def main(paths):
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                yaml.load(f, Loader=StrictLoader)
        except yaml.YAMLError as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
