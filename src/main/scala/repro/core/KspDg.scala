package repro.core

import scala.collection.mutable

/** A k-shortest-path query (Definition 4). */
final case class KspQuery(id: Long, s: Int, t: Int, k: Int)

/** Query answer: up to `k` shortest simple paths, ascending distance, plus
  * the number of filter-refine iterations KSP-DG ran (Section 5.5 metric).
  */
final case class KspResult(query: KspQuery, paths: Seq[Path], iterations: Int)

/** One refine-step work item: partial k-shortest paths between a canonical
  * pair `(a < b)` to be computed in each of `sgIds` and merged.
  */
final case class PairRequest(a: Int, b: Int, k: Int, sgIds: Seq[Int])

/** The refine-step executor: local in-process, or fanned out over Spark.
  * Implementations must return, per canonical pair, the merged top-k partial
  * paths (global ids, oriented a → b, boundary-free interiors).
  */
trait RefineService extends Serializable {
  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]]

  /** Section 5.3 Step 1: LBD-weighted attachment edges from a non-boundary
    * query endpoint `v` to the boundary vertices of its subgraph (plus any
    * `extraTargets` members of the same subgraph, e.g. the other endpoint).
    */
  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)]

  /** Batched form of [[attachmentBounds]] so a distributed implementation can
    * serve a whole query batch with one job.
    */
  def attachmentBoundsBatch(items: Seq[(Int, Set[Int])]): Map[(Int, Set[Int]), Seq[(Int, Double)]] =
    items.distinct.map(it => it -> attachmentBounds(it._1, it._2)).toMap
}

/** In-process refine service backed by the local [[Dtlp]]. */
final class LocalRefineService(dtlp: Dtlp) extends RefineService {
  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] =
    requests.map { r =>
      val merged = r.sgIds
        .flatMap(sgId => dtlp.subIndexes(sgId).partialKsp(r.a, r.b, r.k))
        .distinctBy(_.vertices)
        .sortBy(_.distance)
        .take(r.k)
      (r.a, r.b) -> merged
    }.toMap

  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)] = {
    // Usually one subgraph (non-boundary v); merging with min also covers the
    // corner case of a boundary vertex that never made it into the skeleton.
    dtlp.partitioning.subgraphsOfVertex(v).toSeq
      .flatMap(sgId => dtlp.subIndexes(sgId).boundsFrom(v, extraTargets))
      .groupBy(_._1)
      .map { case (tgt, ws) => tgt -> ws.map(_._2).min }
      .toSeq.sortBy(_._1)
  }
}

object KspDgEngine {
  /** Per-iteration tracing for diagnosis; enable with -Drepro.ksp.trace=1. */
  val traceEnabled: Boolean = sys.props.get("repro.ksp.trace").contains("1")

  /** Shared daemon pool for per-query work (one thread ≙ one QueryBolt). */
  lazy val workerPool: java.util.concurrent.ExecutorService =
    java.util.concurrent.Executors.newFixedThreadPool(
      Runtime.getRuntime.availableProcessors,
      new java.util.concurrent.ThreadFactory {
        private val n = new java.util.concurrent.atomic.AtomicInteger
        def newThread(r: Runnable): Thread = {
          val t = new Thread(r, s"ksp-dg-worker-${n.incrementAndGet()}")
          t.setDaemon(true)
          t
        }
      })
}

object KspDg {
  /** Engine over a local in-process [[Dtlp]] (reference implementation). */
  def local(dtlp: Dtlp, pairKExtra: Int = 2, maxIterations: Int = 5000,
            queryParallelism: Int = Runtime.getRuntime.availableProcessors): KspDgEngine =
    new KspDgEngine(dtlp.partitioning, dtlp.skeleton, new LocalRefineService(dtlp),
      pairKExtra, maxIterations, queryParallelism)
}

/** KSP-DG (Algorithm 3): iterative filter-and-refine over the DTLP index.
  *
  * The engine plays the paper's QueryBolt/EntranceSpout roles: it generates
  * reference paths on (an augmented view of) the skeleton graph, asks the
  * [[RefineService]] for partial k-shortest paths — the distributable step —
  * joins them into candidate KSPs, and maintains the running top-k list `L`
  * until Theorem 3's termination condition holds.
  *
  * @param pairKExtra safety margin added to per-pair `k` so that non-simple
  *                   joins can fall back to deeper segments (DESIGN.md §3)
  */
final class KspDgEngine(
    partitioning: Partitioning,
    skeleton: SkeletonGraph,
    refine: RefineService,
    pairKExtra: Int = 2,
    maxIterations: Int = 5000,
    queryParallelism: Int = Runtime.getRuntime.availableProcessors) extends Serializable {

  /** Cross-query cache of refined pairs: canonical pair → (k computed, paths).
    * Concurrent: read by query threads during merge, written only in the
    * sequential refine phase of each round.
    */
  private val pairCache = scala.collection.concurrent.TrieMap.empty[(Int, Int), (Int, Seq[Path])]

  /** Drop cached partial paths — REQUIRED after any weight-update batch, as
    * cached partials are priced at the weights current when refined.
    */
  def invalidateCache(): Unit = pairCache.clear()

  def query(q: KspQuery): KspResult = batch(Seq(q)).head

  /** Process a batch of queries round-by-round: in each round every active
    * query contributes one reference path; all their pair requests are merged
    * into a single refine call (one Spark job per round in the distributed
    * setting), then each query joins, updates `L`, and tests termination.
    * A query with `k <= 0` or an endpoint outside the graph rejects the
    * whole batch before any work.
    */
  def batch(qs: Seq[KspQuery]): Seq[KspResult] = {
    val n = partitioning.graph.numVertices
    qs.foreach { q =>
      require(q.k > 0, s"query ${q.id}: k must be positive, got ${q.k}")
      require(q.s >= 0 && q.s < n && q.t >= 0 && q.t < n,
        s"query ${q.id}: endpoints (${q.s}, ${q.t}) outside [0, $n)")
    }
    // Step 1 (Section 5.3), batched: LBD attachments for every non-boundary
    // endpoint in the batch, one refine-service call (one Spark job).
    val plans = qs.flatMap(attachmentPlan).distinct
    val attachments = if (plans.isEmpty) Map.empty[(Int, Set[Int]), Seq[(Int, Double)]]
                      else refine.attachmentBoundsBatch(plans)
    val states = qs.map(new QueryState(_, attachments))
    var active = states.filter(!_.done)
    while (active.nonEmpty) {
      // Filter step: one new reference path per active query, computed by
      // the query workers concurrently (threads ≙ the paper's QueryBolts).
      inParallel(active)(_.advanceReference())
      // Collect refine work not already cached deep enough.
      val wanted = mutable.HashMap.empty[(Int, Int), Int]
      active.foreach { st =>
        st.currentPairs.foreach { case (a, b) =>
          val key = canon(a, b)
          val need = st.q.k + pairKExtra
          val have = pairCache.get(key).map(_._1).getOrElse(0)
          if (have < need) wanted(key) = math.max(wanted.getOrElse(key, 0), need)
        }
      }
      if (wanted.nonEmpty) {
        val requests = wanted.toSeq.map { case ((a, b), k) =>
          PairRequest(a, b, k, partitioning.subgraphsContainingBoth(a, b).toSeq)
        }
        refine.partialKsp(requests).foreach { case (key, paths) =>
          pairCache(key) = (wanted(key), paths)
        }
      }
      // Refine/merge step per query, then termination test.
      inParallel(active)(_.mergeAndTest())
      active = active.filter(!_.done)
    }
    states.map(_.result)
  }

  /** Run one action per query state, at most `queryParallelism` at a time,
    * on the shared daemon worker pool (threads ≙ QueryBolts).
    */
  private def inParallel(states: Seq[QueryState])(f: QueryState => Unit): Unit = {
    if (states.size <= 1 || queryParallelism <= 1) states.foreach(f)
    else {
      val buckets = states.zipWithIndex.groupBy(_._2 % queryParallelism).values.toSeq
      val futures = buckets.map { bucket =>
        KspDgEngine.workerPool.submit(new Runnable {
          def run(): Unit = bucket.foreach { case (st, _) => f(st) }
        })
      }
      futures.foreach(_.get())
    }
  }

  private def canon(a: Int, b: Int): (Int, Int) = if (a < b) (a, b) else (b, a)

  private def extrasOf(q: KspQuery): Seq[Int] =
    if (q.s == q.t) Seq.empty
    else Seq(q.s, q.t).filter(v => !skeleton.containsVertex(v)).distinct

  private def attachmentPlan(q: KspQuery): Seq[(Int, Set[Int])] = {
    val extras = extrasOf(q)
    extras.map(v => (v, extras.toSet - v))
  }

  private def segsFor(a: Int, b: Int): IndexedSeq[Path] = {
    val cached = pairCache.get(canon(a, b)).map(_._2).getOrElse(Seq.empty)
    val oriented = if (a < b) cached else cached.map(reverse)
    oriented.toIndexedSeq
  }

  private def reverse(p: Path): Path = Path(p.vertices.reverse, p.edgeIds.reverse, p.distance)

  /** Left-to-right join of per-pair segment lists into candidate KSPs
    * (Algorithm 4 lines 8–10: `C = C ⋈ Y`, keep the k shortest), with an
    * explicit simplicity filter on every concatenation (DESIGN.md §3).
    * Keeping `k + pairKExtra` prefixes at each step bounds the cost at
    * O(pairs · (k + extra)²) while giving non-simple prefixes a fallback.
    */
  private[core] def joinSegments(segments: IndexedSeq[IndexedSeq[Path]], k: Int): Seq[Path] = {
    if (segments.isEmpty || segments.exists(_.isEmpty)) return Seq.empty
    val keep = k + pairKExtra
    var prefixes: Seq[Path] = segments.head.filter(_.isSimple).sortBy(_.distance).take(keep)
    var i = 1
    while (i < segments.size && prefixes.nonEmpty) {
      prefixes = (for {
        c <- prefixes
        s <- segments(i)
        joined = c ++ s
        if joined.isSimple
      } yield joined)
        .sortBy(_.distance)
        .distinctBy(_.vertices)
        .take(keep)
      i += 1
    }
    prefixes.take(k)
  }

  /** Per-query driver state (one QueryBolt instance). */
  private final class QueryState(
      val q: KspQuery,
      prefetched: Map[(Int, Set[Int]), Seq[(Int, Double)]]) {
    var done: Boolean = false
    var iterations: Int = 0
    private val L = mutable.ArrayBuffer.empty[Path]
    private var refPathGlobal: Option[Vector[Int]] = None

    // --- skeleton view with non-boundary endpoints grafted in -------------
    private val viewTriple: (GraphOps, Map[Int, Int], Int => Int) = {
      val extras = extrasOf(q)
      if (extras.isEmpty) (skeleton.graph, skeleton.compactOf, (i: Int) => skeleton.globalOf(i))
      else {
        val extraSet = extras.toSet
        val attachments = extras.map { v =>
          v -> prefetched.getOrElse((v, extraSet - v), Seq.empty)
            // keep each undirected attachment edge once (v, other) with v first seen
            .filter { case (other, _) => !extraSet.contains(other) || extras.indexOf(other) > extras.indexOf(v) }
        }
        skeleton.augmented(attachments)
      }
    }
    private def view: GraphOps = viewTriple._1
    private def viewIdOf: Map[Int, Int] = viewTriple._2
    private def toGlobal(i: Int): Int = viewTriple._3(i)
    private val yen: Option[YenIterator] =
      for { sv <- viewIdOf.get(q.s); tv <- viewIdOf.get(q.t) if q.s != q.t }
        yield new YenIterator(view, sv, tv)

    if (q.s == q.t) { // degenerate query: the empty path
      L += Path(Vector(q.s), Vector.empty, 0.0)
      done = true
    } else if (yen.isEmpty) done = true // endpoint missing from skeleton: unreachable

    def advanceReference(): Unit = {
      refPathGlobal = yen.flatMap(_.next()).map(_.vertices.map(toGlobal))
      if (refPathGlobal.isEmpty) done = true // reference paths exhausted: L is final
      else iterations += 1
    }

    def currentPairs: Seq[(Int, Int)] =
      refPathGlobal.toSeq.flatMap(r => r.zip(r.tail))

    def mergeAndTest(): Unit = {
      if (done) return
      refPathGlobal.foreach { r =>
        val segLists = r.zip(r.tail).map { case (a, b) => segsFor(a, b) }.toIndexedSeq
        val candidates = joinSegments(segLists, q.k)
        candidates.foreach { c =>
          if (!L.exists(_.vertices == c.vertices)) L += c
        }
        val sorted = L.sortBy(_.distance).take(q.k)
        L.clear(); L ++= sorted
      }
      val nextRefDist = yen.flatMap(_.peekDistance())
      val kth = if (L.size >= q.k) Some(L(q.k - 1).distance) else None
      if (KspDgEngine.traceEnabled)
        Console.err.println(f"[ksp-dg-trace] q=${q.id} it=$iterations refLen=${refPathGlobal.map(_.size).getOrElse(0)} " +
          f"kth=${kth.getOrElse(Double.NaN)}%.1f nextRef=${nextRefDist.getOrElse(Double.NaN)}%.1f |L|=${L.size}")
      done =
        (kth.isDefined && (nextRefDist.isEmpty || kth.get <= nextRefDist.get + 1e-9)) ||
        nextRefDist.isEmpty ||
        iterations >= maxIterations
    }

    def result: KspResult = KspResult(q, L.sortBy(_.distance).take(q.k).toSeq, iterations)
  }
}
