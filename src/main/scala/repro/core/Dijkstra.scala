package repro.core

/** A simple path (or walk) in a [[WeightedGraph]].
  *
  * @param vertices vertex sequence, source first
  * @param edgeIds  edge ids between consecutive vertices (`vertices.size - 1` of them)
  * @param distance total weight under the weight function used to find it
  */
final case class Path(vertices: Vector[Int], edgeIds: Vector[Int], distance: Double) {
  def source: Int = vertices.head
  def target: Int = vertices.last
  /** No vertex repeats (checked on a sorted primitive copy). */
  def isSimple: Boolean = {
    val vs = new Array[Int](vertices.length)
    var j = 0
    vertices.foreach { v => vs(j) = v; j += 1 }
    java.util.Arrays.sort(vs)
    var i = 1
    while (i < vs.length && vs(i) != vs(i - 1)) i += 1
    i >= vs.length
  }
  /** Concatenate with a path starting at this path's target. */
  def ++(that: Path): Path = {
    require(target == that.source, s"cannot join $target -> ${that.source}")
    Path(vertices ++ that.vertices.tail, edgeIds ++ that.edgeIds, distance + that.distance)
  }
  /** Re-price this path under the graph's current weights. */
  def repriced(g: WeightedGraph): Path = copy(distance = edgeIds.map(g.weights).sum)
}

/** Min-heap of `(key, vertex)` entries on primitive arrays, with lazy
  * deletion left to the caller. It repeats `mutable.PriorityQueue`'s steps
  * under `Ordering.by(_._1).reverse` exactly — 1-based slots, the same
  * sift-up and sift-down comparisons, `java.lang.Double.compare` — so
  * entries with equal keys leave in the same order as they would from that
  * queue.
  */
private[core] final class MinHeap {
  private var keys = new Array[Double](16)
  private var vertices = new Array[Int](16)
  private var size = 0 // entries live in slots 1..size

  def isEmpty: Boolean = size == 0

  def clear(): Unit = size = 0

  def push(key: Double, v: Int): Unit = {
    if (size + 1 == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * keys.length)
      vertices = java.util.Arrays.copyOf(vertices, 2 * vertices.length)
    }
    size += 1
    keys(size) = key
    vertices(size) = v
    var k = size
    while (k > 1 && java.lang.Double.compare(keys(k), keys(k / 2)) < 0) {
      swap(k, k / 2)
      k = k / 2
    }
  }

  /** Remove a minimum entry and return its vertex; the heap must not be empty. */
  def pop(): Int = {
    val top = vertices(1)
    keys(1) = keys(size)
    vertices(1) = vertices(size)
    size -= 1
    var k = 1
    var sifting = true
    while (sifting && size >= 2 * k) {
      var j = 2 * k
      if (j < size && java.lang.Double.compare(keys(j + 1), keys(j)) < 0) j += 1
      if (java.lang.Double.compare(keys(j), keys(k)) >= 0) sifting = false
      else {
        swap(k, j)
        k = j
      }
    }
    top
  }

  private def swap(a: Int, b: Int): Unit = {
    val hk = keys(a); keys(a) = keys(b); keys(b) = hk
    val hv = vertices(a); vertices(a) = vertices(b); vertices(b) = hv
  }
}

/** Dijkstra's algorithm with optional vertex/edge bans and a pluggable edge
  * weight function (real weights for distances, vfrag counts for bounding
  * paths). Vertex bans never apply to the source or the target, which lets
  * callers forbid boundary-vertex interiors (Section 5.2 refine step).
  */
object Dijkstra {

  /** Result of a single-source run: `dist(v)` is `Double.PositiveInfinity`
    * for unreachable vertices; `parentEdge`/`parentVertex` reconstruct paths.
    */
  final class Result(val dist: Array[Double], val parentVertex: Array[Int], val parentEdge: Array[Int]) {
    def pathTo(t: Int): Option[Path] = {
      if (dist(t).isInfinite) None
      else {
        var len = 0
        var v = t
        while (v >= 0) { len += 1; v = parentVertex(v) }
        val vs = new Array[Int](len)
        val es = new Array[Int](len - 1)
        v = t
        var i = len - 1
        while (i >= 0) {
          vs(i) = v
          if (i > 0) es(i - 1) = parentEdge(v)
          v = parentVertex(v)
          i -= 1
        }
        Some(Path(vs.toVector, es.toVector, dist(t)))
      }
    }
  }

  /** Single-source shortest paths.
    *
    * @param g            the graph
    * @param source       start vertex
    * @param target       if `>= 0`, stop as soon as `target` is settled
    * @param bannedVertex vertices that may not appear (except source/target)
    * @param bannedEdge   edges that may not be used
    * @param weightOf     edge id → weight (defaults to current real weights)
    * @param heuristic    optional consistent lower bound on the remaining
    *                     distance to `target` (turns the search into A*);
    *                     vertices with an infinite heuristic are pruned
    * @param noTransit    vertices that may be *reached* (settled) but never
    *                     expanded through (the source always expands) —
    *                     interior-free search semantics
    */
  def run(
      g: GraphOps,
      source: Int,
      target: Int = -1,
      bannedVertex: Int => Boolean = _ => false,
      bannedEdge: Int => Boolean = _ => false,
      weightOf: Int => Double = null,
      heuristic: Int => Double = null,
      noTransit: Int => Boolean = _ => false): Result = {
    new Search(g).run(source, target, bannedVertex, bannedEdge,
      if (weightOf == null) g.edgeWeight else weightOf, heuristic, noTransit)
  }

  /** Reusable state for runs over one graph. The heap holds
    * `(dist + h, vertex)`; with no heuristic this is plain Dijkstra. Each run
    * resets only the vertices the previous run reached, so a caller issuing
    * many small searches (Yen's spurs) pays no O(n) setup per search. The
    * [[Result]] of a run shares the arrays, so it is valid until the next run.
    */
  private[core] final class Search(g: GraphOps) {
    private val n = g.numVertices
    private val dist = new Array[Double](n)
    private val pv = new Array[Int](n)
    private val pe = new Array[Int](n)
    private val settled = new Array[Boolean](n)
    private val reached = new Array[Int](n)
    private var nReached = 0
    private val heap = new MinHeap
    java.util.Arrays.fill(dist, Double.PositiveInfinity)
    java.util.Arrays.fill(pv, -1)
    java.util.Arrays.fill(pe, -1)

    // The current run's parameters.
    private var target = -1
    private var bannedVertex: Int => Boolean = _
    private var bannedEdge: Int => Boolean = _
    private var w: Int => Double = _
    private var heuristic: Int => Double = _

    private def h(v: Int): Double = if (heuristic == null) 0.0 else heuristic(v)

    /** One search from `source`; see [[Dijkstra.run]] for the parameters
      * (`w` is the weight function to use, `heuristic` may be null).
      */
    def run(
        source: Int,
        target: Int,
        bannedVertex: Int => Boolean,
        bannedEdge: Int => Boolean,
        w: Int => Double,
        heuristic: Int => Double,
        noTransit: Int => Boolean): Result = {
      while (nReached > 0) {
        nReached -= 1
        val v = reached(nReached)
        dist(v) = Double.PositiveInfinity; pv(v) = -1; pe(v) = -1; settled(v) = false
      }
      heap.clear()
      this.target = target
      this.bannedVertex = bannedVertex
      this.bannedEdge = bannedEdge
      this.w = w
      this.heuristic = if (target < 0) null else heuristic
      dist(source) = 0.0
      reached(0) = source; nReached = 1
      heap.push(h(source), source)
      while (!heap.isEmpty) {
        val v = heap.pop()
        if (!settled(v)) {
          settled(v) = true
          if (v == target) return new Result(dist, pv, pe)
          // A banned vertex may be *entered* only if it is the target; it is
          // never expanded further unless it is the source. No-transit
          // vertices settle normally but stop the search locally.
          if (!(bannedVertex(v) && v != source) && (v == source || !noTransit(v))) {
            val d = dist(v)
            g match {
              case wg: WeightedGraph =>
                var i = wg.adjOff(v)
                val end = wg.adjOff(v + 1)
                while (i < end) { relax(v, d, wg.adjVertex(i), wg.adjEdge(i)); i += 1 }
              case _ => g.foreachNeighbor(v)((u, e) => relax(v, d, u, e))
            }
          }
        }
      }
      new Result(dist, pv, pe)
    }

    private def relax(v: Int, d: Double, u: Int, e: Int): Unit =
      if (!settled(u) && !bannedEdge(e) && !(bannedVertex(u) && u != target)) {
        val nd = d + w(e)
        if (nd < dist(u)) {
          val hu = h(u)
          if (!hu.isInfinite) {
            if (dist(u) == Double.PositiveInfinity) { reached(nReached) = u; nReached += 1 }
            dist(u) = nd; pv(u) = v; pe(u) = e
            heap.push(nd + hu, u)
          }
        }
      }
  }

  /** Shortest path from `s` to `t`, if any. */
  def shortestPath(
      g: GraphOps,
      s: Int,
      t: Int,
      bannedVertex: Int => Boolean = _ => false,
      bannedEdge: Int => Boolean = _ => false,
      weightOf: Int => Double = null,
      heuristic: Int => Double = null): Option[Path] =
    run(g, s, t, bannedVertex, bannedEdge, weightOf, heuristic).pathTo(t)
}
