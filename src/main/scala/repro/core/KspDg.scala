package repro.core

import scala.collection.mutable

/** A k-shortest-path query (Definition 4). */
final case class KspQuery(id: Long, s: Int, t: Int, k: Int)

/** Why a query stopped. */
sealed trait Termination
object Termination {
  /** Theorem 3: the k-th path found is no longer than the next reference
    * path's lower bound, so no unseen path can beat it.
    */
  case object Theorem3 extends Termination
  /** Every candidate was enumerated: no reference paths remain (or, for the
    * whole-graph baselines, Yen itself produced the answer).
    */
  case object Exhausted extends Termination
  /** Stopped at the iteration cap before either condition held: the paths
    * are the best found, not proven to be the top k.
    */
  case object IterationCap extends Termination
}

/** Query answer: up to `k` shortest simple paths, ascending distance, the
  * number of filter-refine iterations KSP-DG ran (Section 5.5 metric), and
  * why it stopped.
  */
final case class KspResult(query: KspQuery, paths: Seq[Path], iterations: Int, termination: Termination) {
  /** The paths are proven to be the top k (the query did not stop at the cap). */
  def exact: Boolean = termination != Termination.IterationCap
}

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

/** The QueryBolt's merges (Section 5.2, Figure 14), shared by every
  * [[RefineService]]: results computed per subgraph are combined here.
  */
object RefineService {
  /** One pair's partial paths from the subgraphs holding both ends:
    * distinct by vertex sequence, ascending distance, the first `k`.
    */
  def mergePartials(paths: Seq[Path], k: Int): Seq[Path] =
    paths.distinctBy(_.vertices).sortBy(_.distance).take(k)

  /** One endpoint's attachment edges from the subgraphs containing it: the
    * minimum weight per target, sorted by target.
    */
  def mergeAttachments(edges: Seq[(Int, Double)]): Seq[(Int, Double)] =
    edges.groupBy(_._1).map { case (tgt, ws) => tgt -> ws.map(_._2).min }.toSeq.sortBy(_._1)
}

/** In-process refine service backed by the local [[Dtlp]]. */
final class LocalRefineService(dtlp: Dtlp) extends RefineService {
  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] =
    requests.map { r =>
      (r.a, r.b) -> RefineService.mergePartials(
        r.sgIds.flatMap(sgId => dtlp.subIndexes(sgId).partialKsp(r.a, r.b, r.k)), r.k)
    }.toMap

  // Usually one subgraph (non-boundary v); merging with min also covers the
  // corner case of a boundary vertex that never made it into the skeleton.
  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)] =
    RefineService.mergeAttachments(dtlp.partitioning.subgraphsOfVertex(v).toSeq
      .flatMap(sgId => dtlp.subIndexes(sgId).boundsFrom(v, extraTargets)))
}

object KspDgEngine {
  /** Safety margin added to each pair's `k`, and to the prefixes the join
    * keeps, so that non-simple joins can fall back to deeper segments
    * (DESIGN.md §3).
    */
  private val PairKExtra = 2

  /** Refined pairs of one batch: canonical pair → (k computed, paths). */
  private type PairCache = mutable.HashMap[(Int, Int), (Int, Seq[Path])]

  /** Left-to-right join of per-pair segment lists into candidate KSPs
    * (Algorithm 4 lines 8–10: `C = C ⋈ Y`, keep the k shortest), with an
    * explicit simplicity filter on every concatenation (DESIGN.md §3).
    * Keeping `k + PairKExtra` prefixes at each step bounds the cost at
    * O(pairs · (k + extra)²) while giving non-simple prefixes a fallback.
    *
    * A prefix joined with a simple segment is simple iff the segment's
    * tail avoids the prefix's vertices, tested against one bit set per
    * prefix. Each step ranks `(prefix, segment, distance)` triples stably by
    * distance and builds only the kept joins. No dedup by vertex sequence is
    * needed: within a list the segments are distinct, and in a simple join
    * each boundary vertex of the reference path occurs once, which fixes
    * every split point, so distinct triples give distinct paths.
    */
  private[core] def joinSegments(segments: IndexedSeq[IndexedSeq[Path]], k: Int): Seq[Path] = {
    if (segments.isEmpty || segments.exists(_.isEmpty)) return Seq.empty
    val keep = k + PairKExtra
    var prefixes: IndexedSeq[Path] = segments.head.filter(_.isSimple).sortBy(_.distance).take(keep)
    val onPrefix = new java.util.BitSet
    val topPrefix = new Array[Int](keep)
    val topSegment = new Array[Int](keep)
    val topDist = new Array[Double](keep)
    var i = 1
    while (i < segments.size && prefixes.nonEmpty) {
      val segs = segments(i)
      val segSimple = segs.map(_.isSimple)
      var count = 0
      var c = 0
      while (c < prefixes.size) {
        val prefix = prefixes(c)
        prefix.vertices.foreach(onPrefix.set)
        var sIdx = 0
        while (sIdx < segs.size) {
          val seg = segs(sIdx)
          require(prefix.target == seg.source, s"cannot join ${prefix.target} -> ${seg.source}")
          if (segSimple(sIdx) && tailAvoids(seg.vertices, onPrefix)) {
            val d = prefix.distance + seg.distance
            // Stable top-`keep` insertion: after every kept triple of equal distance.
            if (count < keep || java.lang.Double.compare(d, topDist(count - 1)) < 0) {
              var pos = math.min(count, keep - 1)
              while (pos > 0 && java.lang.Double.compare(topDist(pos - 1), d) > 0) {
                topPrefix(pos) = topPrefix(pos - 1); topSegment(pos) = topSegment(pos - 1); topDist(pos) = topDist(pos - 1)
                pos -= 1
              }
              topPrefix(pos) = c; topSegment(pos) = sIdx; topDist(pos) = d
              if (count < keep) count += 1
            }
          }
          sIdx += 1
        }
        onPrefix.clear()
        c += 1
      }
      val current = prefixes
      prefixes = (0 until count).map(j => current(topPrefix(j)) ++ segs(topSegment(j)))
      i += 1
    }
    prefixes.take(k)
  }

  private def tailAvoids(vertices: Vector[Int], set: java.util.BitSet): Boolean = {
    var j = 1
    while (j < vertices.length && !set.get(vertices(j))) j += 1
    j >= vertices.length
  }
}

object KspDg {
  /** Engine over a local in-process [[Dtlp]] (reference implementation). */
  def local(dtlp: Dtlp, maxIterations: Int = 5000,
            queryParallelism: Int = Runtime.getRuntime.availableProcessors): KspDgEngine =
    new KspDgEngine(dtlp.partitioning, dtlp.skeleton, new LocalRefineService(dtlp),
      maxIterations, queryParallelism)
}

/** KSP-DG (Algorithm 3): iterative filter-and-refine over the DTLP index.
  *
  * The engine plays the paper's QueryBolt/EntranceSpout roles: it generates
  * reference paths on (an augmented view of) the skeleton graph, asks the
  * [[RefineService]] for partial k-shortest paths — the distributable step —
  * joins them into candidate KSPs, and maintains the running top-k list `L`
  * until Theorem 3's termination condition holds.
  */
final class KspDgEngine(
    partitioning: Partitioning,
    skeleton: SkeletonGraph,
    refine: RefineService,
    maxIterations: Int = 5000,
    queryParallelism: Int = Runtime.getRuntime.availableProcessors) extends Serializable {

  import KspDgEngine.{PairCache, PairKExtra, joinSegments}

  /** Does nothing: the pair cache lives for one [[batch]], so no partial
    * path outlives an update. Kept because the benchmark harness
    * (`kspbench/`) calls it.
    */
  def invalidateCache(): Unit = ()

  def query(q: KspQuery): KspResult = batch(Seq(q)).head

  /** Process a batch of queries round-by-round: in each round every active
    * query contributes one reference path; all their pair requests are merged
    * into a single refine call (one Spark job per round in the distributed
    * setting), then each query joins, updates `L`, and tests termination.
    * A query with `k <= 0` or an endpoint outside the graph rejects the
    * whole batch before any work. Refined pairs are cached for the batch
    * only, so every batch prices its partial paths at current weights.
    *
    * A batch must not overlap an index update: it throws
    * `ConcurrentModificationException` if the skeleton's write epoch was odd
    * (an update in progress) when it started or moved while it ran.
    */
  def batch(qs: Seq[KspQuery]): Seq[KspResult] = {
    val n = partitioning.graph.numVertices
    qs.foreach { q =>
      require(q.k > 0, s"query ${q.id}: k must be positive, got ${q.k}")
      require(q.s >= 0 && q.s < n && q.t >= 0 && q.t < n,
        s"query ${q.id}: endpoints (${q.s}, ${q.t}) outside [0, $n)")
    }
    val epoch = skeleton.epoch
    // Step 1 (Section 5.3), batched: LBD attachments for every non-boundary
    // endpoint in the batch, one refine-service call (one Spark job).
    val plans = qs.flatMap(attachmentPlan).distinct
    val attachments = if (plans.isEmpty) Map.empty[(Int, Set[Int]), Seq[(Int, Double)]]
                      else refine.attachmentBoundsBatch(plans)
    val states = qs.map(new QueryState(_, attachments))
    // Written only in the sequential refine phase of each round, read by
    // query threads during merge.
    val pairCache: PairCache = mutable.HashMap.empty
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
          val need = st.q.k + PairKExtra
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
      inParallel(active)(_.mergeAndTest(pairCache))
      active = active.filter(!_.done)
    }
    if ((epoch & 1L) != 0L || skeleton.epoch != epoch)
      throw new java.util.ConcurrentModificationException(
        s"the index was updated during a query batch (epoch $epoch -> ${skeleton.epoch})")
    states.map(_.result)
  }

  /** Run one action per query state, at most `queryParallelism` at a time,
    * on the shared [[WorkerPool]] (threads ≙ QueryBolts).
    */
  private def inParallel(states: Seq[QueryState])(f: QueryState => Unit): Unit = {
    val buckets = states.zipWithIndex.groupBy(_._2 % math.max(1, queryParallelism)).values.toSeq
    WorkerPool.map(buckets)(_.foreach { case (st, _) => f(st) })
  }

  private def canon(a: Int, b: Int): (Int, Int) = if (a < b) (a, b) else (b, a)

  private def extrasOf(q: KspQuery): Seq[Int] =
    if (q.s == q.t) Seq.empty
    else Seq(q.s, q.t).filter(v => !skeleton.containsVertex(v)).distinct

  private def attachmentPlan(q: KspQuery): Seq[(Int, Set[Int])] = {
    val extras = extrasOf(q)
    extras.map(v => (v, extras.toSet - v))
  }

  private def segsFor(pairCache: PairCache, a: Int, b: Int): IndexedSeq[Path] = {
    val cached = pairCache.get(canon(a, b)).map(_._2).getOrElse(Seq.empty)
    val oriented = if (a < b) cached else cached.map(reverse)
    oriented.toIndexedSeq
  }

  private def reverse(p: Path): Path = Path(p.vertices.reverse, p.edgeIds.reverse, p.distance)

  /** Per-query driver state (one QueryBolt instance). */
  private final class QueryState(
      val q: KspQuery,
      prefetched: Map[(Int, Set[Int]), Seq[(Int, Double)]]) {
    var done: Boolean = false
    var iterations: Int = 0
    // Why the query stopped; set whenever `done` becomes true.
    private var termination: Termination = Termination.Exhausted
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

    def mergeAndTest(pairCache: PairCache): Unit = {
      if (done) return
      refPathGlobal.foreach { r =>
        val segLists = r.zip(r.tail).map { case (a, b) => segsFor(pairCache, a, b) }.toIndexedSeq
        val candidates = joinSegments(segLists, q.k)
        candidates.foreach { c =>
          if (!L.exists(_.vertices == c.vertices)) L += c
        }
        val sorted = L.sortBy(_.distance).take(q.k)
        L.clear(); L ++= sorted
      }
      val nextRefDist = yen.flatMap(_.peekDistance())
      val kth = if (L.size >= q.k) Some(L(q.k - 1).distance) else None
      if (kth.isDefined && nextRefDist.isDefined && kth.get <= nextRefDist.get + 1e-9) {
        termination = Termination.Theorem3; done = true
      } else if (nextRefDist.isEmpty) {
        termination = Termination.Exhausted; done = true
      } else if (iterations >= maxIterations) {
        termination = Termination.IterationCap; done = true
      }
    }

    def result: KspResult = KspResult(q, L.sortBy(_.distance).take(q.k).toSeq, iterations, termination)
  }
}
