package repro.core

import scala.collection.mutable

/** One subgraph of the partitioning (Definition 2 / Section 3.3).
  *
  * Vertices may be shared with other subgraphs (boundary vertices); edges are
  * owned exclusively. A local compact [[WeightedGraph]] over local vertex ids
  * supports fast per-subgraph Dijkstra/Yen; `localOf`/`globalOf` translate.
  *
  * The local graph's *initial* weights are the global initial weights, so
  * local vfrag counts match the global ones. Its current weights are written
  * only by the index that owns the copy ([[SubgraphDtlp.update]], or the
  * CANDS baseline's own copies); the copies the Spark driver keeps for the
  * build keep their build-time weights, since the executors own the live ones.
  *
  * @param id        dense subgraph id
  * @param vertexIds global vertex ids, sorted
  * @param edgeIds   global edge ids owned by this subgraph, sorted
  */
final case class Subgraph(
    id: Int,
    vertexIds: Array[Int],
    edgeIds: Array[Int],
    local: WeightedGraph,
    localEdgeOfGlobal: Map[Int, Int],
    globalEdgeOfLocal: Array[Int],
    localOf: Map[Int, Int]) extends Serializable {

  def numVertices: Int = vertexIds.length
  def globalOf(lv: Int): Int = vertexIds(lv)
  def contains(globalVertex: Int): Boolean = localOf.contains(globalVertex)

  /** Boundary vertices of this subgraph (global ids); set by the partitioner. */
  var boundaryIds: Array[Int] = Array.empty
}

/** Result of partitioning: the subgraphs plus global lookup structures. */
final class Partitioning(
    val graph: WeightedGraph,
    val subgraphs: Vector[Subgraph]) extends Serializable {

  /** subgraph ids containing each vertex. */
  val subgraphsOfVertex: Array[Array[Int]] = {
    val buf = Array.fill(graph.numVertices)(mutable.ArrayBuffer.empty[Int])
    subgraphs.foreach(sg => sg.vertexIds.foreach(v => buf(v) += sg.id))
    buf.map(_.toArray)
  }

  /** owning subgraph id per edge (each edge owned by exactly one subgraph). */
  val subgraphOfEdge: Array[Int] = {
    val arr = Array.fill(graph.numEdges)(-1)
    subgraphs.foreach(sg => sg.edgeIds.foreach(e => arr(e) = sg.id))
    arr
  }

  /** Boundary vertex = member of at least two subgraphs (Definition 5). */
  val isBoundary: Array[Boolean] = subgraphsOfVertex.map(_.length >= 2)

  val boundaryVertices: Array[Int] =
    (0 until graph.numVertices).filter(isBoundary).toArray

  // Fill each subgraph's boundary list.
  subgraphs.foreach { sg => sg.boundaryIds = sg.vertexIds.filter(isBoundary) }

  /** Subgraphs containing both `a` and `b` (used to resolve refine requests). */
  def subgraphsContainingBoth(a: Int, b: Int): Array[Int] = {
    val sa = subgraphsOfVertex(a)
    val sb = subgraphsOfVertex(b).toSet
    sa.filter(sb.contains)
  }

  /** Update routing (the EntranceSpout's step, Section 5.2): write `batch`
    * to the master graph, which rejects it whole when it names an unknown
    * edge or a non-finite or non-positive weight, and group it by owning
    * subgraph. Subgraph-local weights are left to the indexes that own them.
    */
  def routeUpdates(batch: Seq[WeightUpdate]): Map[Int, Seq[WeightUpdate]] = {
    graph.applyUpdates(batch)
    batch.groupBy(u => subgraphOfEdge(u.edgeId))
  }
}

/** BFS graph partitioner (Section 3.3): subgraphs of at most `z` vertices,
  * sharing vertices but never edges; the union of vertex/edge sets equals
  * the original graph's.
  */
object Partitioner {

  /** Partition `g` into subgraphs of at most `z` vertices each.
    *
    * Strategy: repeatedly BFS from a seed over still-unowned edges until `z`
    * vertices are collected; the subgraph owns every unowned edge with both
    * endpoints inside. Frontier vertices seed later subgraphs, so a vertex
    * cut between two BFS regions lands in both — those become the boundary.
    */
  def partition(g: WeightedGraph, z: Int): Partitioning = {
    require(z >= 2, s"z must be at least 2, got $z")
    val edgeOwned = new Array[Boolean](g.numEdges)
    val subgraphs = Vector.newBuilder[Subgraph]
    var nextId = 0

    val seedQueue = mutable.Queue[Int](0 until g.numVertices: _*)
    val mark = Array.fill(g.numVertices)(-1) // BFS epoch marker
    var epoch = 0

    def hasUnownedEdge(v: Int): Boolean = {
      var found = false
      g.foreachNeighbor(v) { (_, e) => if (!edgeOwned(e)) found = true }
      found
    }

    while (seedQueue.nonEmpty) {
      val seed = seedQueue.dequeue()
      if (hasUnownedEdge(seed)) {
        epoch += 1
        val verts = mutable.ArrayBuffer.empty[Int]
        val bfs = mutable.Queue(seed)
        mark(seed) = epoch
        verts += seed
        while (bfs.nonEmpty && verts.size < z) {
          val v = bfs.dequeue()
          g.foreachNeighbor(v) { (u, e) =>
            if (!edgeOwned(e) && mark(u) != epoch && verts.size < z) {
              mark(u) = epoch
              verts += u
              bfs.enqueue(u)
            }
          }
        }
        // Own every unowned edge with both endpoints collected.
        val vset = verts.toArray.sorted
        val inSet = vset.toSet
        val edgeIds = mutable.ArrayBuffer.empty[Int]
        verts.foreach { v =>
          g.foreachNeighbor(v) { (u, e) =>
            if (!edgeOwned(e) && inSet.contains(u)) { edgeOwned(e) = true; edgeIds += e }
          }
        }
        if (edgeIds.nonEmpty) {
          subgraphs += buildSubgraph(g, nextId, vset, edgeIds.toArray.sorted)
          nextId += 1
          // Frontier vertices (still touching unowned edges) seed future parts.
          verts.foreach(v => if (hasUnownedEdge(v)) seedQueue.enqueue(v))
        }
      }
    }
    // Safety net: any edge still unowned (cannot happen with the loop above,
    // but guard the invariant) gets a 2-vertex subgraph.
    for (e <- 0 until g.numEdges if !edgeOwned(e)) {
      val rec = g.edges(e)
      subgraphs += buildSubgraph(g, nextId, Array(rec.u, rec.v).sorted, Array(e))
      nextId += 1
      edgeOwned(e) = true
    }
    new Partitioning(g, subgraphs.result())
  }

  private def buildSubgraph(g: WeightedGraph, id: Int, vset: Array[Int], eids: Array[Int]): Subgraph = {
    val localOf = vset.zipWithIndex.toMap
    val localEdges = eids.zipWithIndex.map { case (e, le) =>
      (le, localOf(g.edges(e).u), localOf(g.edges(e).v), g.initialWeights(e))
    }
    val local = new WeightedGraph(
      vset.length,
      localEdges.map { case (le, u, v, _) => if (u < v) EdgeRec(le, u, v) else EdgeRec(le, v, u) },
      localEdges.map(_._4))
    // Sync current weights (initial != current when partitioning a drifted graph).
    eids.zipWithIndex.foreach { case (e, le) => local.weights(le) = g.weights(e) }
    Subgraph(id, vset, eids, local, eids.zipWithIndex.toMap, eids, localOf)
  }
}
