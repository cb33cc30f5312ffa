"""The per-record mining code the group commits replaced, kept as the
differential oracle.

These are the bodies the crawler, the indexer, the dense daemon and
``InvertedIndex`` had when every page row, link row, raw text, posting
list and vector was its own store write (and, with ``sync``, its own
fsync).  They write through the same stores with the per-record calls
(``upsert_page``, ``add_link``, ``Namespace.put``), so after the same
input the stores must be equal, byte for byte and row for row, to what
the batched code leaves.  Not a test module: the oracle tests import it.
"""


from repro.storage.codec import decode, encode
from repro.text.tokenize import tokenize


# -- InvertedIndex: one store write per posting list, per document ------------

def _reference_store(ns, term, table):
    key = term.encode("utf-8")
    if table:
        ns.put(key, encode(table))
    else:
        ns.discard(key)


def _reference_load(ns, term):
    raw = ns.get(term.encode("utf-8"))
    return {} if raw is None else decode(raw)


def _reference_remove_document(idx, doc_id):
    if idx._docs.get(doc_id.encode("utf-8")) is None:
        return False
    for key, value in list(idx._post.items()):
        table = decode(value)
        if doc_id in table:
            del table[doc_id]
            _reference_store(idx._post, key.decode("utf-8"), table)
    idx._docs.delete(doc_id.encode("utf-8"))
    return True


def _reference_add_document(idx, doc_id, text):
    _reference_remove_document(idx, doc_id)
    terms = tokenize(text)
    counts = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    for term, tf in counts.items():
        postings = _reference_load(idx._post, term)
        postings[doc_id] = tf
        _reference_store(idx._post, term, postings)
    idx._docs.put(doc_id.encode("utf-8"), encode(len(terms)))
    # The reference writes behind the index's back.
    idx._totals = None
    return len(terms)


# -- daemons: one commit per page row, link row, text, document, vector -------

def _reference_crawler_run_once(crawler, seen_links):
    """``CrawlerDaemon.run_once`` storing item by item as it fetches
    (spans and metrics left out); *seen_links* is the ``(src, dst)`` set
    the crawler used to keep."""
    with crawler._queue_lock:
        if not crawler._queue:
            return 0
        batch = crawler._queue[: crawler.BATCH]
        del crawler._queue[: len(batch)]
        origins = {url: crawler._origins.pop(url, None) for url in batch}
        for url in batch:
            crawler._queued.discard(url)
    now = crawler.clock()
    version = crawler.repo.versions.open_version()
    done = 0
    try:
        for url in batch:
            fetched = crawler.fetch(url)
            if fetched is None:
                crawler.dead_count += 1
                continue
            crawler.repo.upsert_page(
                url,
                title=fetched.title,
                text=fetched.text,
                front_page=fetched.front_page,
                now=now,
                produced_version=version,
            )
            for dst in fetched.out_links:
                if (url, dst) not in seen_links:
                    seen_links.add((url, dst))
                    crawler.repo.upsert_page(dst, now=now)
                    crawler.repo.add_link(url, dst, now=now)
            crawler.repo.versions.add_item(url, origin=origins[url])
            crawler.fetched_count += 1
            done += 1
    except Exception:
        crawler.repo.versions.abort_version()
        with crawler._queue_lock:
            crawler._queue = list(batch) + crawler._queue
            crawler._queued.update(batch)
        raise
    crawler.repo.versions.publish()
    return done


def _reference_indexer_run_once(indexer):
    """``IndexerDaemon.run_once`` adding one document at a time."""
    watermark, urls = indexer.repo.versions.poll(indexer.name)
    done = 0
    for url in urls:
        text = indexer.repo.page_text(url)
        if text is None:
            continue
        page = indexer.repo.db.table("pages").get(url)
        title = (page or {}).get("title") or ""
        _reference_add_document(indexer.index, url, f"{title} {text}")
        if indexer.vectorizer is not None:
            indexer.vectorizer.vector(url)
        done += 1
    indexer.repo.versions.ack(indexer.name, watermark)
    indexer.indexed_count += done
    return done


def _reference_dense_run_once(dense):
    """``DenseIndexDaemon.run_once`` storing one vector at a time."""
    watermark, urls = dense.repo.versions.poll(dense.name)
    done = 0
    for url in urls:
        sparse = dense.vectorizer.tfidf_vector(url)
        if not sparse:
            continue
        vec = dense.index.projector.project(sparse, dense.vectorizer.vocab)
        with dense.index._dense_lock:
            dense.index._place(url, vec)
            dense.index._ns.put(url.encode("utf-8"), encode({"v": vec}))
        done += 1
    dense.repo.versions.ack(dense.name, watermark)
    dense.projected_count += done
    return done
