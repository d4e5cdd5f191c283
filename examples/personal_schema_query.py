"""Personal-schema querying over real DTD/XSD documents.

The paper's motivating scenario (Sec. 1): a user who does not know the
structure of the XML data on the web writes a small *personal schema* — here
``book`` with ``title`` and ``author``, as in the paper's Fig. 1 — and the
matcher returns a ranked list of places in the schema repository where that
schema can be answered.  This example uses the bundled corpus of hand-written
DTD and XSD documents, so the full ingestion path (parsing real schema
documents) is exercised.

Run with:  python examples/personal_schema_query.py
"""

from __future__ import annotations

from repro import Bellflower
from repro.matchers import TokenNameMatcher, default_synonyms
from repro.workload import book_personal_schema, load_bundled_corpus


def main() -> None:
    # 1. Ingest the bundled DTD/XSD corpus into a schema repository.
    repository = load_bundled_corpus()
    print(f"corpus repository: {repository.tree_count} trees, {repository.node_count} nodes")
    for tree in repository.trees():
        print(f"  {tree.name}: {tree.node_count} nodes, root <{tree.root.name}>")

    # 2. The personal schema of the paper's running example.
    personal = book_personal_schema()
    print(f"\npersonal schema: {personal.names()} (user asks e.g. /book[title='Iliad']/author)")

    # 3. Match with a token-based name matcher and a synonym dictionary, so that
    #    "author" also finds "writer" and "creator".
    matcher = TokenNameMatcher(synonyms=default_synonyms())
    system = Bellflower(repository, matcher=matcher, element_threshold=0.45, delta=0.6)
    result = system.match(personal)

    # 4. Show the ranked mapping choices the user would assert.
    print(f"\n{result.mapping_count} candidate mappings (delta >= 0.6):")
    for rank, mapping in enumerate(result.mappings[:10], start=1):
        tree = repository.tree(mapping.tree_id)
        targets = []
        for node_id, element in sorted(mapping.assignment.items()):
            targets.append(f"{personal.node(node_id).name} -> {tree.root_path(element.ref.node_id)}")
        print(f"  #{rank} Δ={mapping.score:.3f} in {tree.name}")
        for target in targets:
            print(f"      {target}")


if __name__ == "__main__":
    main()
